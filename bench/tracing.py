"""Span tracing of the hsicodec layers, attached from outside the package.

``Tracer`` wraps the public functions listed in ``TRACED`` and rebinds every
name in every loaded ``hsicodec`` module that refers to an original, because
``codec`` and ``lm`` import them with ``from .x import y``. Each call records
a span (name, start, end, parent, run) in memory; ``detach`` restores the
originals. The per-entry helpers of ``wire``, ``rounding`` and ``errors``
are not wrapped: they are charged to their callers.

``layer_metrics`` turns the spans of one traced round trip into the
per-layer metrics. A function missing from the package (renamed or removed
by a later change) is skipped and listed in ``Tracer.missing``; the metrics
it fed read 0.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field

# module -> public functions wrapped; "Class.method" wraps a method
TRACED = {
    "codec": ["encode_cube_full", "decode_cube", "Bitstream.to_bytes", "Bitstream.from_bytes"],
    "lm": ["train", "compute_jacobian"],
    "mlp": ["forward"],
    "cube": ["resize_band", "normalize_band", "denormalize_band"],
    "blocks": ["band_to_blocks", "blocks_to_band"],
    "quantize": [
        "quantize_params", "dequantize_params", "params_payload", "ranges_payload", "from_payloads",
    ],
    "compensate": ["compute_offsets", "apply_offsets", "offsets_to_bytes", "offsets_from_bytes"],
    "entropy": ["encode_bytes", "decode_bytes", "segment_to_bytes", "segment_from_bytes"],
}

# small facts taken from a call's arguments and result; nothing large is kept
ANNOTATE = {
    "entropy.encode_bytes": lambda args, out: {"in_bytes": len(args[0]), "mode": out.mode},
    "entropy.segment_to_bytes": lambda args, out: {"out_bytes": len(out)},
    "compensate.compute_offsets": lambda args, out: {"offsets": len(out)},
}

ENCODE_ROOT = "bench.encode"
DECODE_ROOT = "bench.decode"

# per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "lm.train_s": "s",
    "lm.jacobian_s": "s",
    "lm.jacobian_calls": "count",
    "lm.self_s": "s",
    "lm.epochs": "count",
    "lm.jacobian_ms_per_epoch": "ms",
    "lm.self_ms_per_epoch": "ms",
    "mlp.forward_train_s": "s",
    "mlp.forward_band_s": "s",
    "mlp.forward_calls": "count",
    "cube.prep_s": "s",
    "cube.normalize_calls": "count",
    "blocks.s": "s",
    "quantize.s": "s",
    "compensate.compute_s": "s",
    "compensate.apply_s": "s",
    "compensate.to_bytes_s": "s",
    "compensate.from_bytes_s": "s",
    "compensate.offsets": "count",
    "compensate.offset_frac": "ratio",
    "entropy.encode_s": "s",
    "entropy.decode_s": "s",
    "entropy.first_band_encode_s": "s",
    "entropy.first_band_decode_s": "s",
    "entropy.offsets_encode_s": "s",
    "entropy.offsets_decode_s": "s",
    "entropy.in_bytes": "bytes",
    "entropy.out_bytes": "bytes",
    "entropy.huffman_frac": "ratio",
    "codec.encode_self_s": "s",
    "codec.decode_self_s": "s",
    "codec.frame_s": "s",
    "codec.bytes.header": "bytes",
    "codec.bytes.first-band": "bytes",
    "codec.bytes.params": "bytes",
    "codec.bytes.ranges": "bytes",
    "codec.bytes.offsets": "bytes",
    "trace.encode_s": "s",
    "trace.decode_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    run: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; usable as a context manager that attaches it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.run = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                span.attrs = annotate(args, out)
            return out

        return traced

    def attach(self) -> None:
        self.missing = []
        modules = [m for n, m in sys.modules.items() if n == "hsicodec" or n.startswith("hsicodec.")]
        for mod_name, names in TRACED.items():
            mod = sys.modules.get(f"hsicodec.{mod_name}")
            for qual in names:
                name = f"{mod_name}.{qual.split('.')[-1]}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name, None)
                    raw = vars(cls).get(meth) if cls is not None else None
                    if raw is None:
                        self.missing.append(f"{mod_name}.{qual}")
                        continue
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    setattr(cls, meth, wrapped)
                    self._undo.append((cls, meth, raw))
                    continue
                fn = getattr(mod, qual, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{qual}")
                    continue
                wrapped = self._wrap(name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, fn))

    def detach(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def __enter__(self) -> "Tracer":
        self.attach()
        return self

    def __exit__(self, *exc) -> None:
        self.detach()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def _ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent is not None:
        yield spans[parent].name
        parent = spans[parent].parent


def closure_gap(spans: list[Span], run: int) -> float:
    """|sum of self times - root durations| over one run's spans, in seconds.

    Zero up to rounding when spans nest properly; a wrapper that leaked a
    span or a child outliving its parent shows up here.
    """
    selfs = self_times(spans)
    idx = [i for i, s in enumerate(spans) if s.run == run]
    roots = sum(spans[i].duration for i in idx if spans[i].parent is None)
    return abs(sum(selfs[i] for i in idx) - roots)


def layer_metrics(
    spans: list[Span],
    run: int,
    encode_tags: list[int],
    decode_tags: list[int],
    predicted_pixels: int,
    epochs: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced round trip (encode and decode).

    ``encode_tags`` / ``decode_tags`` are the stream's segment tags in order;
    the codec entropy-codes one segment per call in stream order, which is
    how entropy spans are labelled first-band or offsets.
    """
    selfs = self_times(spans)
    roots = (ENCODE_ROOT, DECODE_ROOT)
    # only work inside the timed encode and decode; the checks run outside them
    idx = [
        i for i, s in enumerate(spans)
        if s.run == run and (s.name in roots or any(a in roots for a in _ancestors(spans, i)))
    ]
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in idx:
        name = spans[i].name
        dur[name] = dur.get(name, 0.0) + spans[i].duration
        own[name] = own.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1

    def total(*names):
        return sum(dur.get(n, 0.0) for n in names)

    fwd_train = fwd_band = 0.0
    normalize_calls = 0
    for i in idx:
        name = spans[i].name
        if name == "mlp.forward":
            if "lm.train" in _ancestors(spans, i):
                fwd_train += spans[i].duration
            else:
                fwd_band += spans[i].duration
        elif name == "cube.normalize_band" and ENCODE_ROOT in _ancestors(spans, i):
            normalize_calls += 1

    def by_role(name, root, tags):
        coded = [i for i in idx if spans[i].name == name and root in _ancestors(spans, i)]
        roles = {"first": 0.0, "offsets": 0.0}
        if len(coded) != len(tags):
            return roles
        for i, tag in zip(coded, tags):
            if tag == 0x01:
                roles["first"] += spans[i].duration
            elif tag == 0x04:
                roles["offsets"] += spans[i].duration
        return roles

    enc_roles = by_role("entropy.encode_bytes", ENCODE_ROOT, encode_tags)
    dec_roles = by_role("entropy.decode_bytes", DECODE_ROOT, decode_tags)

    coded = [spans[i].attrs for i in idx if spans[i].name == "entropy.encode_bytes"]
    offsets = sum(spans[i].attrs.get("offsets", 0) for i in idx if spans[i].name == "compensate.compute_offsets")
    per_epoch = 1000.0 / epochs if epochs else 0.0
    return {
        "lm.train_s": total("lm.train"),
        "lm.jacobian_s": total("lm.compute_jacobian"),
        "lm.jacobian_calls": calls.get("lm.compute_jacobian", 0),
        "lm.self_s": own.get("lm.train", 0.0),
        "lm.epochs": epochs,
        "lm.jacobian_ms_per_epoch": total("lm.compute_jacobian") * per_epoch,
        "lm.self_ms_per_epoch": own.get("lm.train", 0.0) * per_epoch,
        "mlp.forward_train_s": fwd_train,
        "mlp.forward_band_s": fwd_band,
        "mlp.forward_calls": calls.get("mlp.forward", 0),
        "cube.prep_s": total("cube.resize_band", "cube.normalize_band", "cube.denormalize_band"),
        "cube.normalize_calls": normalize_calls,
        "blocks.s": total("blocks.band_to_blocks", "blocks.blocks_to_band"),
        "quantize.s": total(*(f"quantize.{n}" for n in TRACED["quantize"])),
        "compensate.compute_s": total("compensate.compute_offsets"),
        "compensate.apply_s": total("compensate.apply_offsets"),
        "compensate.to_bytes_s": total("compensate.offsets_to_bytes"),
        "compensate.from_bytes_s": total("compensate.offsets_from_bytes"),
        "compensate.offsets": offsets,
        "compensate.offset_frac": offsets / predicted_pixels if predicted_pixels else 0.0,
        "entropy.encode_s": total("entropy.encode_bytes", "entropy.segment_to_bytes"),
        "entropy.decode_s": total("entropy.decode_bytes", "entropy.segment_from_bytes"),
        "entropy.first_band_encode_s": enc_roles["first"],
        "entropy.first_band_decode_s": dec_roles["first"],
        "entropy.offsets_encode_s": enc_roles["offsets"],
        "entropy.offsets_decode_s": dec_roles["offsets"],
        "entropy.in_bytes": sum(a.get("in_bytes", 0) for a in coded),
        "entropy.out_bytes": sum(
            spans[i].attrs.get("out_bytes", 0) for i in idx
            if spans[i].name == "entropy.segment_to_bytes" and ENCODE_ROOT in _ancestors(spans, i)
        ),
        "entropy.huffman_frac": (
            sum(a.get("mode") == "huffman" for a in coded) / len(coded) if coded else 0.0
        ),
        "codec.encode_self_s": own.get("codec.encode_cube_full", 0.0),
        "codec.decode_self_s": own.get("codec.decode_cube", 0.0),
        "codec.frame_s": total("codec.to_bytes", "codec.from_bytes"),
        "trace.encode_s": total(ENCODE_ROOT),
        "trace.decode_s": total(DECODE_ROOT),
    }
