"""Scaling laws for language model training.

Fit power-law constants from small training runs, predict the loss of
much larger runs, and split a compute budget between model size, batch
size, and training steps.
"""

from .errors import *
from .laws import *
from .records import *
from .synthetic import *
from .fitting import *
from .planning import *
from .io import *

__version__ = "0.1.0"

__all__ = sorted(
    errors.__all__
    + laws.__all__
    + records.__all__
    + synthetic.__all__
    + fitting.__all__
    + planning.__all__
    + io.__all__
)
