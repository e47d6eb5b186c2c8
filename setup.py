"""Packaging for ``repro``, the FedKNOW reproduction under ``src/``.

There is no ``pyproject.toml``: the metadata is here, and the version is
read from ``src/repro/__init__.py``.  The only runtime dependency is numpy.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description="FedKNOW (ICDE 2023) reproduction on a numpy-only "
                "deep-learning substrate",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
