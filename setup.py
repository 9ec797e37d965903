"""Packaging metadata for the PODC'22 distributed-coloring reproduction.

The offline environment used for this reproduction has setuptools but not the
``wheel`` package, so PEP 517 editable installs (which build a wheel) can
fail; a plain ``setup.py`` keeps ``pip install -e .`` working through the
legacy editable path.  ``numpy`` is a hard requirement: it runs the default
``columnar`` transport backend (``repro.congest.columnar``) and the
vectorized digest kernels.
"""

from setuptools import find_packages, setup

setup(
    name="repro-congestion-coloring",
    version="0.8.0",
    description=(
        "Reproduction of 'Overcoming Congestion in Distributed Coloring' "
        "(Halldorsson, Nolin, Tonoyan; PODC 2022): CONGEST simulator, "
        "representative hashing, and the (degree+1)-list-coloring pipeline"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=[
        "networkx",
        "numpy",
    ],
    extras_require={
        "test": ["pytest", "hypothesis"],
        "scale": ["scipy"],
    },
)
