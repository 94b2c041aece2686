"""Setup shim for offline environments without PEP 660 editable-wheel
support.  The package is pure Python: nothing is compiled."""

from setuptools import find_packages, setup

setup(
    package_dir={"": "src"},
    packages=find_packages("src"),
)
