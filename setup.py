"""Setuptools build configuration for the ``repro`` package.

``pip install .`` (or ``pip install -e .``) installs the ``repro`` package
from ``src/``; a checkout also runs as is with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description="Reproduction of LLM-Vectorizer: LLM-Based Verified Loop Vectorizer (CGO 2025)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
