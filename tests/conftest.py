import base64
import threading
import time
from pathlib import Path

import pytest

from cingal.bundle import Authentication, Bundle, CodeSection, Datum
from cingal.security import generate_keypair, sign_bundle

REPO = Path(__file__).resolve().parent.parent
SAMPLES = REPO / "samples"
SCENARIOS = REPO / "scenarios"


@pytest.fixture(scope="session")
def keypair():
    return generate_keypair()


@pytest.fixture(scope="session")
def second_keypair():
    return generate_keypair()


def make_bundle(entry="demo.Echo", code_type="builtin", datums=(),
                units=(("unit", base64.b64encode(b"code").decode()),)):
    return Bundle(auth=Authentication("nobody", "none"),
                  code=CodeSection(entry, code_type, tuple(units)),
                  data=tuple(datums))


def make_signed(key, entity, entry="demo.Echo", datums=()):
    return sign_bundle(make_bundle(entry=entry, datums=tuple(datums)),
                       key, entity)


@pytest.fixture
def echo_bundle(keypair):
    key, _ = keypair
    return make_signed(key, "tester")


def datum(datum_id, content=""):
    return Datum(datum_id, content)


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def threads_back_to(baseline, timeout=5.0):
    """True once no more than ``baseline`` threads are live."""
    return wait_for(lambda: threading.active_count() <= baseline, timeout)
