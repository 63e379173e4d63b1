#!/usr/bin/env python3
"""hsicodec benchmark: timed encode/decode round trips on pinned synthetic cubes.

Run from the repository root:

    python3 bench/run.py --workload nearlossless-sparse --seed 1 --seconds 50 --trace 0

The run makes its workload's cubes from --seed (bench/workloads.py), then
drives the public API from one process in a closed loop: encode_cube_full
+ Bitstream.to_bytes, then Bitstream.from_bytes + decode_cube. Every round
trip is checked. With --trace 0 it times whole passes over the cubes and
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced round trips (bench/tracing.py) and reports the per-layer metrics.
It prints a readable report, then as its last line one JSON object with
the keys correct, attempted, failed and metrics. The full record
(environment, settings, digests, samples, spans) goes to .bench_out/.

encode_s is the median encode time of the run. decode_s is the fastest
decode of the run ("best of n"), with the median and tail printed beside it.
On a shared 2-CPU machine the host's speed switches between modes some 40%
apart, for seconds to minutes at a time. An encode (1-5 s) spans several
switches, so its median is steady. A decode (60-400 ms) sits inside one
mode, so its median follows how long the host was contended: over ten
seeds its quartile spread was 27-41%, against 12-15% for the fastest
sample. bpppb and mean_psnr_db are medians over the run's cubes, because a
band whose training stalls can put a few percent of its pixels under
offsets and triple that cube's rate.
"""

from __future__ import annotations

import os
import time

# setup_s counts the imports from here on
_START = time.perf_counter()

# One BLAS thread gives the tightest run-to-run spread on a small machine;
# OpenBLAS reads this when numpy loads it, so it is set before any import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import dataclasses
import json
import math
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import DECODE_ROOT, ENCODE_ROOT, LAYER_UNITS, Tracer, closure_gap, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, cube_digest

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
BAND_PIXELS = 256 * 256
TAG_NAMES = {0x01: "first-band", 0x02: "params", 0x03: "ranges", 0x04: "offsets"}
# PSNR given to an exactly decoded band: that of a single pixel off by one
LOSSLESS_PSNR_DB = 10.0 * math.log10(255 * 255 * BAND_PIXELS)

END_TO_END_UNITS = {
    "setup_s": "s",
    "encode_s": "s",
    "decode_s": "s",
    "bpppb": "bit/px/band",
    "mean_psnr_db": "dB",
    "peak_rss_mb": "MB",
}

# ROADMAP "Baseline" rows (re-anchor probe, 4 bands, seed 7) beside the
# traced per-layer metric that reproduces each
BASELINE_ROWS = [
    ("compute_jacobian, ms per epoch", "275", "lm.jacobian_ms_per_epoch", 1.0),
    ("lm.self (J'J, J'e, solve, mu loop), ms per epoch", "124 + 19/try", "lm.self_ms_per_epoch", 1.0),
    ("Huffman encode, first band, ms", "44", "entropy.first_band_encode_s", 1000.0),
    ("Huffman decode, first band, ms", "109", "entropy.first_band_decode_s", 1000.0),
    ("Huffman encode, offsets, ms", "64", "entropy.offsets_encode_s", 1000.0),
    ("Huffman decode, offsets, ms", "167", "entropy.offsets_decode_s", 1000.0),
    ("offsets_to_bytes, ms", "44", "compensate.to_bytes_s", 1000.0),
    ("offsets_from_bytes, ms", "60", "compensate.from_bytes_s", 1000.0),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_codec():
    """Import hsicodec and make_cube from the checkout; returns them and the time since start."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    try:
        import hsicodec
        from make_synthetic_cube import make_cube
    except ImportError as exc:
        sys.exit(f"bench: cannot import hsicodec and make_cube under {ROOT}: {exc}")
    return hsicodec, make_cube, time.perf_counter() - _START


def openblas_info() -> list[dict]:
    """Version, core type and thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}get_config{suffix}"):
                    for key, fn, restype in (
                        ("config", "get_config", ctypes.c_char_p),
                        ("core", "get_corename", ctypes.c_char_p),
                        ("threads", "get_num_threads", ctypes.c_int),
                    ):
                        f = getattr(lib, f"{prefix}{fn}{suffix}")
                        f.restype, f.argtypes = restype, []
                        value = f()
                        info[key] = value.decode() if isinstance(value, bytes) else value
        found.append(info)
    return found


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "load_generator": "one process, closed loop, one round trip at a time",
    }


def summarize(samples: list[float]) -> dict:
    """Fastest sample, median, and the highest order statistic above the median
    with at least ten samples beyond it."""
    s = sorted(samples)
    out = {"min": s[0], "median": statistics.median(s), "n": len(s), "tail": None}
    if len(s) >= 21:
        out["tail"] = {"percentile": round(100.0 * (len(s) - 10) / len(s), 1), "value": s[-11]}
    return out


def varint_len(n: int) -> int:
    return max(1, (n.bit_length() + 6) // 7)


def segment_bytes(codec, bs) -> dict[str, int]:
    """Stream bytes per segment kind (tag + varint length + body) and header."""
    sizes = {"header": len(codec.Bitstream(header=bs.header, segments=[]).to_bytes())}
    for name in TAG_NAMES.values():
        sizes[name] = 0
    for tag, body in bs.segments:
        name = TAG_NAMES.get(tag, f"tag{tag}")
        sizes[name] = sizes.get(name, 0) + 1 + varint_len(len(body)) + len(body)
    return sizes


def check(codec, comp, res, blob, decoded, expected_blob) -> list[str]:
    """Every check of one round trip; returns the failures found."""
    problems = []
    recon = np.stack(res.recon_bands).astype(np.int64)
    ref = np.stack(res.resized_bands).astype(np.int64)
    for out in decoded:
        got = out.data.astype(np.int64)
        if got.shape != recon.shape or not np.array_equal(got, recon):
            problems.append("decoded cube differs from the encoder's reconstruction")
            continue
        # with lambda 0 and q_step 1 the bound is 0.5: the decode must be exact
        tol = comp.lam * np.maximum(np.abs(ref), 1) + comp.q_step / 2
        if comp.enabled and np.any(np.abs(got - ref) > tol):
            problems.append("a pixel exceeds the near-lossless bound")
    if sum(segment_bytes(codec, res.bitstream).values()) != len(blob):
        problems.append("header + segment bytes do not add up to the stream length")
    if any(r.stop_reason == "time" for r in res.train_reports):
        problems.append("a band stopped on the time limit")
    if expected_blob is not None and blob != expected_blob:
        problems.append("stream differs from the first encode of the same cube")
    return problems


class Bench:
    """One workload's cubes, settings and the round trips run on them."""

    def __init__(self, codec, wl, cubes):
        self.codec, self.wl, self.cubes = codec, wl, cubes
        self.cfg = wl.encoder_config(codec)
        self.blobs: list[bytes | None] = [None] * len(cubes)
        self.results: list = [None] * len(cubes)
        self.decoded: list = [None] * len(cubes)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def round_trip(self, i: int, decodes: int, tracer: Tracer | None = None):
        """Encode cube i once and decode it ``decodes`` times.

        Returns (encode_s, [decode_s], EncodeResult, stream), or None when the
        round trip raised or failed a check.
        """
        codec = self.codec

        def span(name):
            return tracer.span(name) if tracer else contextlib.nullcontext()

        self.attempted += 1
        try:
            t0 = time.perf_counter()
            with span(ENCODE_ROOT):
                res = codec.encode_cube_full(self.cubes[i], self.cfg)
                blob = res.bitstream.to_bytes()
            enc = time.perf_counter() - t0
            decs, outs = [], []
            for _ in range(decodes):
                t0 = time.perf_counter()
                with span(DECODE_ROOT):
                    outs.append(codec.decode_cube(codec.Bitstream.from_bytes(blob)))
                decs.append(time.perf_counter() - t0)
            problems = check(codec, self.cfg.compensation, res, blob, outs, self.blobs[i])
        except Exception:  # a failed round trip is counted, reported and survived
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            self.failures.extend(f"cube {i}: {p}" for p in problems)
            return None
        if self.blobs[i] is None:
            self.blobs[i], self.results[i], self.decoded[i] = blob, res, outs[0]
        return enc, decs, res, blob

    def quality(self) -> dict:
        """Median rate and quality over the cube set (every cube encoded at least once)."""
        from hsicodec.metrics import psnr

        rates = [self.codec.bitrate(r.bitstream) for r in self.results]
        psnrs = [
            statistics.fmean(
                min(psnr(ref.astype(np.int64), got.astype(np.int64)), LOSSLESS_PSNR_DB)
                for ref, got in zip(res.resized_bands[1:], out.data[1:])
            )
            for res, out in zip(self.results, self.decoded)
        ]
        return {
            "bpppb": statistics.median(rates),
            "bpppb_per_cube": rates,
            "mean_psnr_db": statistics.median(psnrs),
            "mean_psnr_db_per_cube": psnrs,
            "epochs_per_cube": [sum(t.epochs_run for t in r.train_reports) for r in self.results],
            "stop_reasons": [[t.stop_reason for t in r.train_reports] for r in self.results],
        }


def setup(make_cube, wl, seed) -> tuple[list, dict]:
    """Synthesize the cubes and check the pinned digest of the default seed."""
    pinned = wl.make_cubes(make_cube, DEFAULT_SEED, count=1)[0]
    got = cube_digest(pinned)
    if got != wl.pinned_sha256:
        sys.exit(
            f"bench: cube 0 of {wl.name} at seed {DEFAULT_SEED} has sha256 {got}, "
            f"pinned {wl.pinned_sha256}: the generator changed the workload"
        )
    cubes = wl.make_cubes(make_cube, seed)
    return cubes, {"pinned_default_seed": got, "cubes": [cube_digest(c) for c in cubes]}


def warm_up(codec, cube) -> None:
    """One short round trip so lazy imports and first-call paths are paid before timing."""
    small = codec.HyperCube(data=cube.data[:2])
    cfg = codec.EncoderConfig(train=codec.TrainConfig(max_epochs=1))
    codec.decode_cube(codec.Bitstream.from_bytes(codec.encode_cube_full(small, cfg).bitstream.to_bytes()))


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    """Whole passes over the cubes while another pass still fits in ``seconds``."""
    enc, dec = [], []
    start = time.perf_counter()
    last_pass = 0.0
    while last_pass == 0.0 or time.perf_counter() - start + last_pass <= seconds:
        t0 = time.perf_counter()
        for i in range(len(bench.cubes)):
            out = bench.round_trip(i, bench.wl.decodes)
            if out is not None:
                enc.append(out[0])
                dec.extend(out[1])
        last_pass = time.perf_counter() - t0
    return {"encode_s": enc, "decode_s": dec}


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, Tracer, dict]:
    """Alternate an untraced and a traced round trip per cube while a pair fits in ``seconds``."""
    tracer = Tracer()
    plain, traced, layers, gaps = [], [], [], []
    start = time.perf_counter()
    last_pair, i = 0.0, 0
    while last_pair == 0.0 or time.perf_counter() - start + last_pair <= seconds:
        t0 = time.perf_counter()
        cube = i % len(bench.cubes)
        out = bench.round_trip(cube, 1)
        if out is not None:
            plain.append(out[0] + out[1][0])
        tracer.run = i
        with tracer:
            out = bench.round_trip(cube, 1, tracer)
        if out is not None:
            _, _, res, blob = out
            tags = [tag for tag, _ in res.bitstream.segments]
            h = res.bitstream.header
            m = layer_metrics(
                tracer.spans, i, tags, tags,
                predicted_pixels=(h.coded_bands - 1) * BAND_PIXELS,
                epochs=sum(t.epochs_run for t in res.train_reports),
            )
            for name, size in segment_bytes(bench.codec, res.bitstream).items():
                m[f"codec.bytes.{name}"] = size
            traced.append(m["trace.encode_s"] + m["trace.decode_s"])
            layers.append(m)
            gap = closure_gap(tracer.spans, i)
            gaps.append(gap)
            if gap > 1e-6 * (m["trace.encode_s"] + m["trace.decode_s"]):
                bench.failed += 1
                bench.failures.append(f"round trip {i}: span self times miss the total by {gap:.3g} s")
        last_pair = time.perf_counter() - t0
        i += 1
    metrics = {name: statistics.median(m.get(name, 0) for m in layers) for name in LAYER_UNITS} if layers else {}
    if layers and plain:
        metrics["trace.overhead_frac"] = min(traced) / min(plain) - 1.0
    return metrics, tracer, {"untraced_round_trip_s": plain, "traced_round_trip_s": traced, "closure_gap_s": gaps}


def print_report(title: str, rows: list[tuple[str, str]]) -> None:
    print(f"== {title}")
    width = max((len(k) for k, _ in rows), default=0)
    for key, value in rows:
        print(f"  {key:<{width}}  {value}")


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    codec, make_cube, import_s = import_codec()

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cubes, digests = setup(make_cube, wl, args.seed)
        warm_up(codec, cubes[0])
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    bench = Bench(codec, wl, cubes)
    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_settings": dataclasses.asdict(wl),
        "encoder_settings": dataclasses.asdict(bench.cfg),
        "digests": digests,
        "environment": environment(),
        "setup": {"import_s": import_s, "repeats_s": setups},
    }
    print_report(f"{wl.name} seed {args.seed} trace {args.trace}: {wl.why}", [
        ("encoder settings", json.dumps(record["encoder_settings"], sort_keys=True)),
        ("cubes", f"{len(cubes)} x {wl.bands} bands, texture {wl.texture}, decodes per encode {wl.decodes}"),
        ("cube sha256", " ".join(d[:16] for d in digests["cubes"])),
        ("environment", json.dumps(record["environment"], sort_keys=True)),
    ])

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        layer, tracer, samples = measure_traced(bench, args.seconds)
        record["samples"] = samples
        record["missing_wrappers"] = tracer.missing
        record["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
        for name, unit in LAYER_UNITS.items():
            if name in layer:
                metrics[name] = (layer[name], unit)
        rows = [(name, f"{value:.6g} {unit}") for name, (value, unit) in metrics.items()]
        if tracer.missing:
            rows.append(("missing wrappers", ", ".join(tracer.missing)))
        print_report("per-layer metrics (median per traced round trip of one cube)", rows)
        if layer:
            print_report("ROADMAP baseline rows (4-band cube, seed 7) beside this workload, per cube", [
                (label, f"ROADMAP {ref:>12}  here {layer[key] * scale:10.2f}")
                for label, ref, key, scale in BASELINE_ROWS
            ])
            print_report("share of the traced round trip", [
                ("lm.train_s / trace.encode_s", f"{layer['lm.train_s'] / layer['trace.encode_s']:.3f}"),
                ("(entropy.decode_s + compensate.from_bytes_s) / trace.decode_s",
                 f"{(layer['entropy.decode_s'] + layer['compensate.from_bytes_s']) / layer['trace.decode_s']:.3f}"),
            ])
    else:
        samples = measure_end_to_end(bench, args.seconds)
        record["samples"] = samples
        if all(b is not None for b in bench.blobs):
            q = bench.quality()
            record["quality"] = q
            values = {
                "setup_s": setup_s,
                "encode_s": statistics.median(samples["encode_s"]),
                "decode_s": min(samples["decode_s"]),
                "bpppb": q["bpppb"],
                "mean_psnr_db": q["mean_psnr_db"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        rows = []
        for name, (value, unit) in metrics.items():
            text = f"{value:.6g} {unit}"
            if name in samples:
                s = summarize(samples[name])
                tail = (f"p{s['tail']['percentile']} {s['tail']['value']:.6g} {unit}" if s["tail"]
                        else "no percentile above the median has 10 samples beyond it")
                text += f"  (n={s['n']}; fastest {s['min']:.6g} {unit}; median {s['median']:.6g} {unit}; {tail})"
            rows.append((name, text))
        rows.append(("failed_frac", f"{bench.failed / bench.attempted:.6g}  ({bench.failed} of {bench.attempted} round trips)"))
        print_report("end-to-end metrics", rows)
        record["summaries"] = {k: summarize(v) for k, v in samples.items() if v}

    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    record["failures"] = bench.failures
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"record written to {out_path.relative_to(ROOT)}")

    correct = not bench.failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
