"""Setuptools entry point.  The package needs only numpy and scipy."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.6.0",
    description="Reverse top-k RWR search with hub-based lower-bound indexing",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
