"""Legacy setup shim: the environment's setuptools predates PEP 660 editable
wheels and the ``wheel`` package is unavailable offline, so ``pip install -e .``
falls back to this file (``setup.py develop``)."""
from setuptools import setup

setup(install_requires=["numpy", "scipy"])
