"""Packaging for the ``repro`` library, whose sources live under ``src/``.

All project metadata lives here; the repository has no
``pyproject.toml``.  The version is read from ``src/repro/__init__.py``
so it has one source.  ``python setup.py develop`` performs an editable
install in offline environments without the ``wheel`` package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
)
