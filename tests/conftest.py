"""Suite-wide pytest settings that need the package importable.

A ScalingLawWarning that a test does not expect fails it, as a
RuntimeWarning or ResourceWarning does (pyproject.toml). The filter is set
here rather than in pyproject.toml because pytest resolves the class by
importing it, which would stop a checkout without the package installed
from running bench/test_bench.py.
"""


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::scalinglaws.errors.ScalingLawWarning")
