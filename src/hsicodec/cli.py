"""Command-line front end.

Commands: encode, decode, metrics, rd, info. Human-readable progress goes
to stderr; machine output (CSV tables, stream dumps) goes to stdout.

Exit codes: 0 ok, 2 usage, 3 I/O, input format or a cube too large for
memory, 4 corrupt stream, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from . import metrics as qm
from .codec import (
    Bitstream,
    EncoderConfig,
    TAG_NAMES,
    bitrate,
    decode_cube,
    encode_cube_full,
    max_payload,
)
from .compensate import CompensationConfig
from .cube import load_cube, store_cube
from .entropy import MODES, segment_from_bytes
from .errors import (
    CodecError,
    CorruptInputError,
    CorruptStreamError,
    FormatError,
    NumericError,
    UndefinedCorrelationError,
    WriteError,
)
from .lm import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CORRUPT = 4
EXIT_NUMERIC = 5


def _parse_exclusions(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad exclusion list {text!r}") from exc


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        mse_goal=args.mse_goal,
        max_epochs=args.max_epochs,
        seed=args.seed,
        init_range=(-args.init_range, args.init_range),
    )


def _encoder_config(args) -> EncoderConfig:
    # rd has no --lambda: rd_points sets each run's tolerance from --lambdas
    lam = getattr(args, "lam", CompensationConfig.lam)
    comp = CompensationConfig(lam=lam, q_step=args.qstep, enabled=not args.no_compensation)
    return EncoderConfig(train=_train_config(args), compensation=comp, band_exclusions=args.exclude)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    d = TrainConfig()
    p.add_argument("--seed", type=int, default=d.seed, help="training RNG seed")
    p.add_argument("--mse-goal", type=float, default=d.mse_goal, dest="mse_goal")
    p.add_argument("--max-epochs", type=int, default=d.max_epochs, dest="max_epochs")
    p.add_argument("--init-range", type=float, default=d.init_range[1], dest="init_range",
                   help="weights start uniform in [-r, r]; smaller values "
                        "tend to quantize better")
    p.add_argument("--exclude", type=_parse_exclusions, default="",
                   help="comma-separated damaged band indices")


def _add_comp_flags(p: argparse.ArgumentParser) -> None:
    d = CompensationConfig()
    p.add_argument("--qstep", type=int, default=d.q_step, help="offset quantization step")
    p.add_argument("--no-compensation", action="store_true")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsicodec",
        description="Inter-band predictive hyperspectral image codec",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="cube file -> bitstream file")
    enc.add_argument("input", help="input cube (.raw with .hdr sidecar)")
    enc.add_argument("output", help="output bitstream (.bip)")
    _add_train_flags(enc)
    enc.add_argument("--lambda", type=float, default=CompensationConfig.lam, dest="lam",
                     help="maximum acceptable relative reconstruction error")
    _add_comp_flags(enc)

    dec = sub.add_parser("decode", help="bitstream file -> cube file")
    dec.add_argument("input", help="input bitstream")
    dec.add_argument("output", help="output cube (.raw)")

    met = sub.add_parser("metrics", help="per-band report comparing two cubes")
    met.add_argument("reference", help="reference cube (.raw)")
    met.add_argument("test", help="test cube (.raw)")
    met.add_argument("--peak", type=int, default=255, help="PSNR peak and SSIM dynamic range")

    # no abbreviations, so that encode's --lambda is not taken for --lambdas
    rd = sub.add_parser("rd", help="rate-distortion sweep, CSV to stdout", allow_abbrev=False)
    rd.add_argument("input", help="input cube (.raw)")
    rd.add_argument("--lambdas", default="0.0,0.01,0.02,0.05",
                    help="comma-separated tolerance sweep")
    _add_train_flags(rd)
    _add_comp_flags(rd)

    info = sub.add_parser("info", help="dump bitstream header and segments")
    info.add_argument("input", help="input bitstream")
    return parser


def _cmd_encode(args) -> int:
    cube = load_cube(args.input)
    cfg = _encoder_config(args)
    result = encode_cube_full(cube, cfg)
    blob = result.bitstream.to_bytes()
    try:
        Path(args.output).write_bytes(blob)
    except OSError as exc:
        raise WriteError(f"cannot write {args.output}: {exc}") from exc

    rate = bitrate(result.bitstream)
    print(f"coded {len(result.band_indices)} bands, {len(blob)} bytes, "
          f"{rate:.4f} bpppb", file=sys.stderr)
    records = qm.band_records(result.resized_bands, result.recon_bands)
    for k, (band_idx, r) in enumerate(zip(result.band_indices, records)):
        line = f"band {band_idx}: psnr {r.psnr_db:.2f} dB" + ("" if r.ssim is None else f", ssim {r.ssim:.4f}")
        if k > 0:
            rep = result.train_reports[k - 1]
            line += (f", predict psnr {qm.psnr_db(result.predict_mse[k - 1]):.2f} dB, "
                     f"epochs {rep.epochs_run}, stop {rep.stop_reason}, "
                     f"train mse {rep.final_mse:.1e}")
        print(line, file=sys.stderr)
    return EXIT_OK


def _read_stream(path: str) -> tuple[bytes, Bitstream]:
    """The bytes of the stream file at ``path`` and the Bitstream they parse to."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CorruptInputError(f"cannot read {path}: {exc}") from exc
    return blob, Bitstream.from_bytes(blob)


def _cmd_decode(args) -> int:
    cube = decode_cube(_read_stream(args.input)[1])
    store_cube(cube, args.output)
    print(f"decoded {cube.bands} bands to {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    ref = load_cube(args.reference)
    test = load_cube(args.test)
    records = qm.band_records(ref.data, test.data, peak=args.peak)
    print("band,mse,ssim,psnr_db,cc_next")
    for k, r in enumerate(records):
        # the reference's correlation with its next band; empty for the last and a constant pair
        cc = ""
        if k + 1 < ref.bands:
            with contextlib.suppress(UndefinedCorrelationError):
                cc = f"{qm.correlation_coefficient(ref.band(k), ref.band(k + 1)):.6g}"
        print(f"{k},{r.mse:.6g},{qm.csv_number(r.ssim)},{r.psnr_db:.6g},{cc}")
    return EXIT_OK


def _cmd_rd(args) -> int:
    cube = load_cube(args.input)
    cfg = _encoder_config(args)
    if args.no_compensation:
        lambdas = [0.0]
    else:
        lambdas = [float(part) for part in args.lambdas.split(",") if part.strip()]
    points = qm.rd_points(cube, lambdas, cfg)
    sys.stdout.write(qm.rd_csv(points))
    return EXIT_OK


def _cmd_info(args) -> int:
    blob, bs = _read_stream(args.input)
    h, comp = bs.header, bs.header.compensation
    print(f"geometry: {h.rows}x{h.cols}, {h.coded_bands} coded bands")
    print(f"exclusions: {list(h.exclusions)}")
    print(f"compensation: enabled={comp.enabled} lambda={comp.lam:.6g} qstep={comp.q_step}")
    print(f"total: {len(blob)} bytes, {bitrate(bs):.4f} bpppb")
    for k, (tag, body) in enumerate(bs.segments):
        try:
            original = len(segment_from_bytes(body, max_payload(h.rows, h.cols)[tag]))
            detail = f"mode={MODES[body[0]]} original={original}"
        except CorruptStreamError:
            detail = "unparsed"
        print(f"segment {k}: {TAG_NAMES[tag]}, {len(body)} bytes, {detail}")
    return EXIT_OK


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "metrics": _cmd_metrics,
    "rd": _cmd_rd,
    "info": _cmd_info,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except CorruptStreamError as exc:
        print(f"error: corrupt stream: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except NumericError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CorruptInputError, FormatError, WriteError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CodecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
