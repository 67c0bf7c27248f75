"""Suite-wide settings: property tests draw the same examples on every run and
keep no example database, so a run's result does not depend on earlier runs.
``HYPOTHESIS_PROFILE=thorough`` selects a profile with the same settings and
ten times the examples of every test that does not set its own count.
Hypothesis's other cache, constants mined from the source at collection, goes
to a temporary directory removed at exit, so the suite writes nothing into the
checkout."""

import atexit
import os
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.register_profile("thorough", settings.get_profile("deterministic"), max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
atexit.register(_storage.cleanup)  # removed explicitly: an implicit cleanup warns, an error under -W error
set_hypothesis_home_dir(_storage.name)
