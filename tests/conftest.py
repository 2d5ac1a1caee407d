"""Shared test settings.

Hypothesis runs derandomized, with a bounded number of examples and no
example database, so tier-1 stays deterministic.  Its cache lives in a
temporary folder removed at exit, so a test run writes nothing into the
checkout.
"""

import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.mkdtemp(prefix="geodesk-hypothesis-")
atexit.register(shutil.rmtree, _HOME, ignore_errors=True)
set_hypothesis_home_dir(_HOME)
settings.register_profile("geodesk", derandomize=True, database=None, deadline=None,
                          max_examples=100)
settings.load_profile("geodesk")
