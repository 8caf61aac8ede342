"""Packaging for the DC-MBQC reproduction (the ``repro`` package in ``src/``).

This classic ``setup.py`` is the only packaging file.  It works offline and
without the ``wheel`` package: ``pip install -e .`` falls back to the legacy
``setup.py develop`` path when PEP 660 editable builds are unavailable.

numpy is the only runtime dependency: ``src/repro`` stores every graph as
numpy arrays and imports nothing else outside the standard library.  The
``test`` extra adds what the test suite imports, networkx among it (the
tests' oracles compare the arrays with networkx graphs):
``pip install -e ".[test]"``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis", "networkx"]},
)
