"""Packaging for the OmniSim reproduction (src layout).

The version is the single-sourced ``repro.__version__`` — read textually
so ``setup.py`` never imports the package it is about to install.  NumPy
is a real dependency (the vectorized batch-retiming kernel,
``repro.trace.vectorized``); the package still imports and runs without
it via the pure-Python scalar path, so environments that strip the
dependency lose only the batched fast path.
"""

import os
import re

from setuptools import find_packages, setup

_HERE = os.path.abspath(os.path.dirname(__file__))


def _version() -> str:
    init = os.path.join(_HERE, "src", "repro", "__init__.py")
    with open(init, encoding="utf-8") as fh:
        match = re.search(r'^__version__ = "([^"]+)"', fh.read(), re.M)
    if match is None:
        raise RuntimeError("repro.__version__ not found in " + init)
    return match.group(1)


def _readme() -> str:
    with open(os.path.join(_HERE, "README.md"), encoding="utf-8") as fh:
        return fh.read()


setup(
    name="omnisim-repro",
    version=_version(),
    description=("C-speed, RTL-accurate simulation of HLS designs: "
                 "graph capture, incremental retiming, vectorized "
                 "depth-space exploration"),
    long_description=_readme(),
    long_description_content_type="text/markdown",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.22",
    ],
    extras_require={
        "specs": ["pyyaml"],
        "test": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": ["omnisim=repro.cli:main"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Electronic Design Automation (EDA)",
    ],
)
