import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI runs with HYPOTHESIS_PROFILE=ci: a fixed example sequence, and a failing
# example printed as a blob that @reproduce_failure replays, so a property
# failure there reproduces locally with the same command.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

from spinhom import projector as pj
from spinhom.complexes import Window


@pytest.fixture(scope="session")
def w8() -> Window:
    return Window(-8, 0)


@pytest.fixture(scope="session")
def p2_w8(w8):
    return pj.p2(w8)


@pytest.fixture(scope="session")
def p3_w8(w8):
    return pj.build_projector(3, w8)
