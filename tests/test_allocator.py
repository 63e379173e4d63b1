"""``import hsicodec`` keeps freed band buffers in glibc's heap unless the caller chose a malloc policy.

Minor page faults of the main thread (``RUSAGE_THREAD``; the zlib worker's
are its own) over repeated round trips of one cube show whether a freed
band's pages are handed back to the kernel and faulted in again.
"""

import os
from pathlib import Path

import pytest

from test_blas_threads import run_fresh

try:
    GLIBC = bool(os.confstr("CS_GNU_LIBC_VERSION"))
except (AttributeError, ValueError, OSError):
    GLIBC = False

pytestmark = pytest.mark.skipif(not GLIBC, reason="the malloc policy is set on glibc only")

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# three warm-up round trips of a 3-band 256 x 256 textured cube at lambda 0,
# then the main thread's minor faults over the next three
ROUND_TRIPS = f"""
import resource, sys
sys.path.insert(0, {str(SCRIPTS)!r})
import hsicodec
from make_synthetic_cube import make_cube

cube = make_cube(3, 256, 7, 12.0)
cfg = hsicodec.EncoderConfig(
    train=hsicodec.TrainConfig(max_epochs=2), compensation=hsicodec.CompensationConfig(lam=0.0)
)

def round_trip():
    blob = hsicodec.encode_cube_full(cube, cfg).bitstream.to_bytes()
    hsicodec.decode_cube(hsicodec.Bitstream.from_bytes(blob))

for _ in range(3):
    round_trip()
before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
for _ in range(3):
    round_trip()
print(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)
"""


def faults(**preset) -> int:
    return int(run_fresh(ROUND_TRIPS, **preset))


def test_round_trips_fault_no_band_in_again():
    # each 256 x 256 float64 band array is 128 pages, and a round trip makes dozens
    assert faults() < 100


@pytest.mark.parametrize(
    "preset",
    [{"MALLOC_TRIM_THRESHOLD_": "131072"}, {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}],
    ids=["env", "tunables"],
)
def test_caller_malloc_policy_wins(preset):
    assert faults(**preset) > 1000
