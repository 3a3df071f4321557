"""Setuptools shim.

Kept so that ``pip install -e .`` works in fully offline environments
(where PEP 517 build isolation cannot download setuptools/wheel).  The
project metadata lives here; the package sources are under ``src/``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
