"""Setuptools shim.

The package has no packaging metadata yet: there is no ``pyproject.toml``,
so ``setup()`` below describes nothing, and the package is used from the
source tree with ``PYTHONPATH=src`` (see the README).  A ``pyproject.toml``
belongs here once an offline editable install
(``pip install --no-build-isolation --no-deps -e .``) can be checked; with
setuptools but no ``wheel`` package, that install fails.
"""

from setuptools import setup

setup()
