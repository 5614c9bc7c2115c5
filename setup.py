"""Legacy setuptools shim; all metadata lives in ``pyproject.toml``.

Without the ``wheel`` package, pip's PEP 517 installs fail with
``invalid command 'bdist_wheel'`` and ``--no-use-pep517`` needs ``wheel``
too. Where ``wheel`` is missing, install in development mode with::

    python setup.py develop

Where it is present, ``pip install -e .`` (or ``pip install .``) works.
"""

from setuptools import setup

setup()
