"""Hypothesis draws the same examples on every run.

A derandomized profile with no example database makes each ``@given`` test
reproducible: an input that fails, fails on every run and every machine.
Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
