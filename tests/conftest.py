"""Suite-wide settings: property tests draw the same examples on every run and
keep no example database, so a run's result does not depend on earlier runs.
Hypothesis's other cache, constants mined from the source at collection, goes
to a temporary directory removed at exit, so the suite writes nothing into the
checkout."""

import atexit
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
atexit.register(_storage.cleanup)  # removed explicitly: an implicit cleanup warns, an error under -W error
set_hypothesis_home_dir(_storage.name)
