"""Suite-wide settings: property tests draw the same examples on every run and
keep no example database, so a run's result does not depend on earlier runs.
``HYPOTHESIS_PROFILE=thorough`` selects a profile with the same settings and
ten times the examples of every test that does not set its own count, and of
every test that sets it through ``test_codec.examples``.
Hypothesis's other cache, constants mined from the source at collection, goes
to a temporary directory removed at exit, so the suite writes nothing into the
checkout.  The ``rounding`` fixture runs a test class on each of the reader's
rounding paths that the platform has."""

import atexit
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from arrayvariate import array_core

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.register_profile("thorough", settings.get_profile("deterministic"), max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
atexit.register(_storage.cleanup)  # removed explicitly: an implicit cleanup warns, an error under -W error
set_hypothesis_home_dir(_storage.name)

# The reader rounds a value whose |e| <= 27 with one x87 long-double multiply or divide where np.longdouble is the
# x87 format, and every other value, and every value elsewhere, with Clinger's case and the double-double product.
# The classes that use this fixture run on each path the platform has: the fallback by turning the probe off.
ROUNDINGS = {"fallback": False, "x87": True} if array_core._X87 else {"fallback": False}


@pytest.fixture(scope="class", params=list(ROUNDINGS.values()), ids=list(ROUNDINGS))
def rounding(request):
    with mock.patch.object(array_core, "_X87", request.param):
        yield
