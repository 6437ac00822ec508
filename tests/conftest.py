"""Let the interpreters the tests start import the mixedpoly they test.

pytest's ``pythonpath`` setting reaches only its own process; the CLI
tests also run ``python -m mixedpoly`` in subprocesses.
"""

import os
from pathlib import Path

import mixedpoly

_ROOT = str(Path(mixedpoly.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_ROOT, os.environ.get("PYTHONPATH")]))
