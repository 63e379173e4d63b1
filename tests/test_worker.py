"""The zlib worker thread: fork safety, at most one band's segments on it, and error order."""

import os
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from hsicodec import codec, entropy
from hsicodec.codec import TAG_PARAMS, Bitstream, decode_cube, encode_cube_full
from hsicodec.entropy import MODES, segment_from_bytes
from hsicodec.errors import CorruptStreamError
from hsicodec.quantize import RECORD
from test_codec import fast_cfg, smooth_cube

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_forked_child_codes_with_a_worker_of_its_own():
    # the parent's worker is running when it forks; the child has no copy of that thread, so
    # it must start its own, or its first segment waits forever (the alarm then kills it)
    code = (
        "import os, signal, sys\n"
        "import numpy as np\n"
        "sys.path.insert(0, 'tests')\n"
        "from test_codec import decode_cube, encode_cube_full, fast_cfg, smooth_cube\n"
        "def round_trip():\n"
        "    result = encode_cube_full(smooth_cube(bands=3), fast_cfg(epochs=1))\n"
        "    assert np.array_equal(decode_cube(result.bitstream).data, result.recon_bands)\n"
        "round_trip()\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(60)\n"
        "    status = 1\n"
        "    try:\n"
        "        round_trip()\n"
        "        status = 0\n"
        "    finally:\n"
        "        os._exit(status)\n"
        "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def record(bs: Bitstream, band: int) -> bytes:
    """Band ``band``'s params record, whichever mode its segment has."""
    return segment_from_bytes(bs.segments[2 * band - 1][1], RECORD.size)


def zlib_params(bs: Bitstream) -> Bitstream:
    """``bs`` with every params record deflated, so each band has two segments for the worker."""
    segments = [
        (tag, b"\x01" + zlib.compress(record(bs, (i + 1) // 2)) if tag == TAG_PARAMS else body)
        for i, (tag, body) in enumerate(bs.segments)
    ]
    assert all(MODES[body[0]] == "zlib" for _, body in segments)
    return Bitstream(header=bs.header, segments=segments)


class CountingWorker:
    """The worker, recording at each hand-over the bands whose segments were handed over and
    whose payloads the band loop has not taken yet.

    Segment i of the stream belongs to band 0 (the first band) or to band 1 + (i - 1) // 2, and
    each codec side hands its segments over in stream order, from ``first_segment`` on.
    """

    def __init__(self, first_segment: int):
        self.pool = entropy.worker()
        self.handed = first_segment
        self.pending: list[int] = []
        self.seen: list[tuple[int, list[int]]] = []  # (band handed over, bands pending)

    def submit(self, fn, *args):
        band = 0 if self.handed == 0 else 1 + (self.handed - 1) // 2
        self.handed += 1
        self.pending.append(band)
        self.seen.append((band, sorted(set(self.pending))))
        return Handed(self.pool.submit(fn, *args), lambda: self.pending.remove(band))


class Handed:
    """A future whose result, when taken, is no longer pending."""

    def __init__(self, future, taken):
        self.future, self.taken = future, taken

    def result(self):
        out = self.future.result()
        self.taken()
        return out


def test_each_side_runs_at_most_one_band_ahead_of_zlib(monkeypatch):
    cube, cfg = smooth_cube(bands=5), fast_cfg(epochs=1)
    expected = encode_cube_full(cube, cfg)

    # zlib slowed down, so the band loop always gets ahead of the worker
    def slowed(fn):
        def call(*args):
            time.sleep(0.02)
            return fn(*args)
        return call

    monkeypatch.setattr(entropy, "segment_to_bytes", slowed(entropy.segment_to_bytes))
    monkeypatch.setattr(codec, "segment_to_bytes", entropy.segment_to_bytes)
    monkeypatch.setattr(entropy, "segment_from_bytes", slowed(entropy.segment_from_bytes))

    # the encoder takes band k - 1's segments before it hands band k's over
    encoding = CountingWorker(first_segment=0)
    monkeypatch.setattr(codec, "worker", lambda: encoding)
    result = encode_cube_full(cube, cfg)
    assert result.bitstream.to_bytes() == expected.bitstream.to_bytes()
    assert len(encoding.seen) == len(result.bitstream.segments) and not encoding.pending
    assert all(pending == [band] for band, pending in encoding.seen), encoding.seen

    # the decoder inflates the first band itself, and hands band k + 1's segments over while
    # band k's are still to be taken, never one band more
    decoding = CountingWorker(first_segment=1)
    monkeypatch.setattr(entropy, "worker", lambda: decoding)
    decoded = decode_cube(zlib_params(result.bitstream))
    assert np.array_equal(decoded.data, expected.recon_bands)
    assert len(decoding.seen) == len(result.bitstream.segments) - 1 and not decoding.pending
    assert all(set(pending) <= {band - 1, band} for band, pending in decoding.seen), decoding.seen
    assert any(pending == [band - 1, band] for band, pending in decoding.seen), decoding.seen


def damaged(bs: Bitstream, record_band: int, segment_band: int) -> Bitstream:
    """``bs`` with band ``record_band``'s params record one byte short, stored raw, and band
    ``segment_band``'s zlib offsets segment cut short."""
    segments = list(bs.segments)
    segments[2 * record_band - 1] = (TAG_PARAMS, b"\x00" + record(bs, record_band)[:-1])
    tag, body = segments[2 * segment_band]
    assert MODES[body[0]] == "zlib"
    segments[2 * segment_band] = (tag, body[:-1])
    return Bitstream(header=bs.header, segments=segments)


@pytest.mark.parametrize("segment_band", [1, 2], ids=["same band", "next band"])
def test_errors_come_in_stream_order(segment_band):
    # a sequential decode meets band 1's bad record before any later segment, its own band's
    # offsets included; the next band's segment, inflated ahead on the worker, must not win
    result = encode_cube_full(smooth_cube(bands=3), fast_cfg(epochs=1))
    with pytest.raises(CorruptStreamError, match="params record has 385 bytes"):
        decode_cube(damaged(result.bitstream, 1, segment_band))
    # the segment left on the worker does not disturb the next decode
    assert np.array_equal(decode_cube(result.bitstream).data, result.recon_bands)
    with pytest.raises(CorruptStreamError, match="zlib payload"):
        decode_cube(damaged(result.bitstream, 2, 1))
