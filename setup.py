"""Bare setuptools entry point; the project declares no packaging metadata.

The library, its tests, examples and benchmarks run straight from the
checkout with ``PYTHONPATH=src`` and need only numpy and scipy (plus pytest
for the suites).
"""

from setuptools import setup

setup()
