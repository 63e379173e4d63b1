import re

import numpy as np
import pytest

from hsicodec.cli import EXIT_CORRUPT, EXIT_IO, EXIT_OK, EXIT_USAGE, _build_parser, _encoder_config, run
from hsicodec.codec import MAX_PAYLOAD, TAG_PARAMS, Bitstream, BitstreamHeader, EncoderConfig
from hsicodec.compensate import CompensationConfig
from hsicodec.cube import HyperCube, load_cube, store_cube
from hsicodec.entropy import segment_from_bytes, segment_to_bytes
from hsicodec.metrics import correlation_coefficient


@pytest.fixture
def cube_file(tmp_path):
    i, j = np.meshgrid(np.arange(48), np.arange(48), indexing="ij")
    base = 100 + 60 * np.sin(i / 7.0) * np.cos(j / 9.0)
    stack = [np.round(base * (1 + 0.06 * b)).astype(np.int16) for b in range(3)]
    path = tmp_path / "cube.raw"
    store_cube(HyperCube(data=np.stack(stack)), path)
    return path


FAST = ["--max-epochs", "2", "--seed", "1"]


def test_encode_decode_metrics_pipeline(tmp_path, cube_file, capsys):
    out = tmp_path / "out.bip"
    resized = tmp_path / "resized.raw"
    rc = run(["encode", str(cube_file), str(out), "--lambda", "0",
              "--emit-resized", str(resized), *FAST])
    assert rc == EXIT_OK
    assert out.exists() and resized.exists()
    band_lines = capsys.readouterr().err.splitlines()[2:]
    assert len(band_lines) == 2
    for line in band_lines:
        assert re.search(r", epochs 2, stop epochs, train mse \d\.\de[-+]\d\d$", line), line

    rec = tmp_path / "rec.raw"
    assert run(["decode", str(out), str(rec)]) == EXIT_OK

    # lossless limit: decoded equals the emitted resized reference exactly
    assert np.array_equal(load_cube(rec).data, load_cube(resized).data)

    capsys.readouterr()
    assert run(["metrics", str(resized), str(rec)]) == EXIT_OK
    table = capsys.readouterr().out.strip().split("\n")
    assert table[0] == "band,mse,ssim,psnr_db,cc_next"
    assert len(table) == 4
    for line in table[1:]:
        fields = line.split(",")
        assert float(fields[1]) == 0.0  # mse
        assert fields[3] == "inf"       # psnr sentinel


def test_metrics_cc_next_is_the_reference_next_band_correlation(tmp_path, capsys):
    rng = np.random.default_rng(3)
    varied = rng.integers(40, 210, (3, 32, 32))
    ref = np.concatenate([varied, np.full((1, 32, 32), 7), np.full((1, 32, 32), 9)]).astype(np.int16)
    ref_path, test_path = tmp_path / "ref.raw", tmp_path / "test.raw"
    store_cube(HyperCube(data=ref), ref_path)
    # noise in the test cube changes its correlations, and makes its constant bands vary
    store_cube(HyperCube(data=ref + rng.integers(-5, 6, ref.shape, dtype=np.int16)), test_path)
    capsys.readouterr()
    assert run(["metrics", str(ref_path), str(test_path)]) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["0", "1", "2", "3", "4"]
    # band 2 meets a constant band, bands 3 and 4 are a constant pair, band 4 is the last
    cc = [f"{correlation_coefficient(ref[k], ref[k + 1]):.6g}" for k in range(2)]
    assert [row[4] for row in rows] == cc + ["", "", ""]


def test_encode_prints_predict_psnr_on_predicted_bands(tmp_path, cube_file, capsys):
    # compensation off: a predicted band's reconstruction is its prediction, so both figures agree
    out = tmp_path / "out.bip"
    assert run(["encode", str(cube_file), str(out), "--no-compensation", *FAST]) == EXIT_OK
    first, *predicted = capsys.readouterr().err.splitlines()[1:]
    assert "predict psnr" not in first
    assert len(predicted) == 2
    for line in predicted:
        m = re.fullmatch(r"band \d: psnr (\S+) dB, ssim \S+, predict psnr (\S+) dB, epochs .*", line)
        assert m and m[1] == m[2], line


def test_encode_deterministic(tmp_path, cube_file):
    a = tmp_path / "a.bip"
    b = tmp_path / "b.bip"
    assert run(["encode", str(cube_file), str(a), "--lambda", "0.01", *FAST]) == EXIT_OK
    assert run(["encode", str(cube_file), str(b), "--lambda", "0.01", *FAST]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_info_command(tmp_path, cube_file, capsys):
    out = tmp_path / "out.bip"
    assert run(["encode", str(cube_file), str(out), *FAST]) == EXIT_OK
    capsys.readouterr()
    assert run(["info", str(out)]) == EXIT_OK
    dump = capsys.readouterr().out
    assert "3 coded bands" in dump
    assert "first-band" in dump
    assert "params" in dump


def test_info_names_the_residual_segment(tmp_path, cube_file, capsys):
    out = tmp_path / "out.bip"
    # at lambda 0 a 2-epoch network misses most pixels, so both bands take the residual plane
    assert run(["encode", str(cube_file), str(out), "--lambda", "0", *FAST]) == EXIT_OK
    capsys.readouterr()
    assert run(["info", str(out)]) == EXIT_OK
    names = re.findall(r"^segment \d+: ([\w-]+),", capsys.readouterr().out, re.M)
    assert names == ["first-band"] + ["params", "residual"] * 2


def test_hdr_output_path_is_refused(tmp_path, cube_file):
    stream = tmp_path / "out.bip"
    ref = tmp_path / "ref.hdr"
    assert run(["encode", str(cube_file), str(stream), "--emit-resized", str(ref), *FAST]) == EXIT_IO
    rec = tmp_path / "rec.hdr"
    assert run(["decode", str(stream), str(rec)]) == EXIT_IO
    assert not ref.exists() and not rec.exists()


def test_info_on_truncated_stream(tmp_path, cube_file):
    out = tmp_path / "out.bip"
    assert run(["encode", str(cube_file), str(out), *FAST]) == EXIT_OK
    blob = out.read_bytes()
    out.write_bytes(blob[: len(blob) // 2])
    assert run(["info", str(out)]) == EXIT_CORRUPT


def test_info_lists_a_segment_it_cannot_parse(tmp_path, cube_file, capsys):
    # a params segment whose mode byte names no mode, or whose zlib body is not zlib:
    # info still lists it, decode rejects it
    two_bands = tmp_path / "two.raw"
    store_cube(HyperCube(data=load_cube(cube_file).data[:2]), two_bands)
    out = tmp_path / "out.bip"
    assert run(["encode", str(two_bands), str(out), "--max-epochs", "1"]) == EXIT_OK
    bs = Bitstream.from_bytes(out.read_bytes())
    tag, body = bs.segments[1]
    assert tag == TAG_PARAMS
    for bad in (b"\x07" + body[1:], b"\x01" + bytes(len(body) - 1)):
        bs.segments[1] = (tag, bad)
        out.write_bytes(bs.to_bytes())
        capsys.readouterr()
        assert run(["info", str(out)]) == EXIT_OK
        assert f"segment 1: params, {len(body)} bytes, unparsed" in capsys.readouterr().out.splitlines()
        assert run(["decode", str(out), str(tmp_path / "x.raw")]) == EXIT_CORRUPT


def test_decode_garbage_stream(tmp_path):
    bad = tmp_path / "bad.bip"
    bad.write_bytes(b"not a stream at all")
    assert run(["decode", str(bad), str(tmp_path / "x.raw")]) == EXIT_CORRUPT


def command_args(command, stream, tmp_path):
    return [command, str(stream)] + ([str(tmp_path / "x.raw")] if command == "decode" else [])


@pytest.mark.parametrize("command", ["info", "decode"])
@pytest.mark.parametrize(
    "field, value", [("q_step", 0), ("q_step", -5), ("lam", float("nan")), ("enabled", 7)]
)
def test_decode_corrupt_compensation_header(tmp_path, cube_file, capsys, command, field, value):
    # the header is checked where it is read, so info rejects what decode rejects
    out = tmp_path / "out.bip"
    assert run(["encode", str(cube_file), str(out), *FAST]) == EXIT_OK
    bs = Bitstream.from_bytes(out.read_bytes())
    setattr(bs.header.compensation, field, value)
    out.write_bytes(bs.to_bytes())
    capsys.readouterr()
    assert run(command_args(command, out, tmp_path)) == EXIT_CORRUPT
    assert "bad compensation header" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["info", "decode"])
def test_version_2_stream_is_unsupported(tmp_path, cube_file, capsys, command):
    # versions 2 and 3 carried a length inside each segment; no reader for them is kept
    out = tmp_path / "out.bip"
    assert run(["encode", str(cube_file), str(out), *FAST]) == EXIT_OK
    blob = bytearray(out.read_bytes())
    assert blob[4] == 4
    for version in (2, 3):
        blob[4] = version
        out.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run(command_args(command, out, tmp_path)) == EXIT_CORRUPT
        assert f"unsupported version {version}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["info", "decode"])
@pytest.mark.parametrize("cut", [False, True], ids=["params-appended", "first-segment-only"])
def test_segments_breaking_the_grammar_are_corrupt(tmp_path, cube_file, capsys, command, cut):
    # the segment grammar is checked where the stream is read, so info rejects what decode rejects
    two = tmp_path / "two.raw"
    store_cube(HyperCube(data=load_cube(cube_file).data[:2]), two)
    out = tmp_path / "out.bip"
    assert run(["encode", str(two), str(out), *FAST]) == EXIT_OK
    bs = Bitstream.from_bytes(out.read_bytes())
    segments = bs.segments[:1] if cut else bs.segments + [bs.segments[1]]
    out.write_bytes(Bitstream(header=bs.header, segments=segments).to_bytes())
    capsys.readouterr()
    assert run(command_args(command, out, tmp_path)) == EXIT_CORRUPT
    assert "grammar of 2 coded bands" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["encode", "rd"])
def test_flag_defaults_are_the_config_defaults(command):
    args = _build_parser().parse_args([command, "in.raw"] + (["out.bip"] if command == "encode" else []))
    assert _encoder_config(args) == EncoderConfig()


def test_decode_short_params_payload(tmp_path, cube_file):
    out = tmp_path / "out.bip"
    assert run(["encode", str(cube_file), str(out), *FAST]) == EXIT_OK
    bs = Bitstream.from_bytes(out.read_bytes())
    assert bs.segments[1][0] == TAG_PARAMS
    payload = segment_from_bytes(bs.segments[1][1], MAX_PAYLOAD[TAG_PARAMS])
    bs.segments[1] = (TAG_PARAMS, segment_to_bytes(payload[:10]))
    out.write_bytes(bs.to_bytes())
    assert run(["decode", str(out), str(tmp_path / "x.raw")]) == EXIT_CORRUPT


@pytest.mark.parametrize("command", ["info", "decode"])
@pytest.mark.parametrize("geometry", [(256, 256, 0), (0, 256, 1)])
def test_bad_header_geometry_is_corrupt(tmp_path, command, geometry):
    # 0 coded bands or a 0x256 band: both commands reject the header alike
    rows, cols, coded = geometry
    header = BitstreamHeader(
        rows=rows, cols=cols, coded_bands=coded, exclusions=(),
        compensation=CompensationConfig(enabled=False),
    )
    stream = tmp_path / "bad.bip"
    stream.write_bytes(Bitstream(header=header, segments=[]).to_bytes())
    assert run(command_args(command, stream, tmp_path)) == EXIT_CORRUPT


def test_encode_past_the_header_fields_is_a_usage_error(tmp_path, capsys):
    cube = tmp_path / "tall.raw"
    store_cube(HyperCube(data=np.ones((65537, 1, 1), np.int16)), cube)
    exclude = ",".join(map(str, range(65536)))
    assert run(["encode", str(cube), str(tmp_path / "o.bip"), "--exclude", exclude]) == EXIT_USAGE
    assert "u16 header fields" in capsys.readouterr().err
    assert not (tmp_path / "o.bip").exists()


def test_missing_input_file(tmp_path):
    rc = run(["encode", str(tmp_path / "absent.raw"), str(tmp_path / "o.bip")])
    assert rc == EXIT_IO


def test_usage_errors():
    assert run([]) == EXIT_USAGE
    assert run(["frobnicate"]) == EXIT_USAGE
    assert run(["encode"]) == EXIT_USAGE


def test_bad_flag_value_is_usage_error(tmp_path, cube_file):
    out = tmp_path / "o.bip"
    assert run(["encode", str(cube_file), str(out), "--lambda", "-0.5"]) == EXIT_USAGE
    assert run(["encode", str(cube_file), str(out), "--qstep", "0"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "flag",
    [
        ["--max-epochs", "-3"],
        ["--mse-goal", "-1"],
        ["--mse-goal", "nan"],
        # no such option: training never stops on the clock
        ["--max-seconds", "5"],
        ["--max-seconds", "nan"],
        ["--init-range", "inf"],
        ["--init-range", "1e308"],
    ],
)
def test_bad_training_flag_is_usage_error(tmp_path, cube_file, capsys, flag):
    assert run(["encode", str(cube_file), str(tmp_path / "o.bip"), *flag]) == EXIT_USAGE
    assert not (tmp_path / "o.bip").exists()
    capsys.readouterr()
    assert run(["rd", str(cube_file), *flag]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_rd_command_csv(tmp_path, cube_file, capsys):
    capsys.readouterr()
    rc = run(["rd", str(cube_file), "--lambdas", "0.0,0.05", *FAST])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "lambda,bpppb,mean_psnr_db,mean_ssim"
    assert len(out) == 3


def test_rd_has_no_lambda_flag(cube_file):
    # rd sweeps --lambdas; --lambda is encode's alone and is not an abbreviation here
    assert run(["rd", str(cube_file), "--lambda", "0.1", *FAST]) == EXIT_USAGE


def test_rd_no_compensation_single_row(tmp_path, cube_file, capsys):
    capsys.readouterr()
    rc = run(["rd", str(cube_file), "--no-compensation", "--lambdas", "0.0,0.1", *FAST])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 2


def test_exclude_flag(tmp_path, cube_file, capsys):
    out = tmp_path / "out.bip"
    rc = run(["encode", str(cube_file), str(out), "--exclude", "1", *FAST])
    assert rc == EXIT_OK
    rec = tmp_path / "rec.raw"
    assert run(["decode", str(out), str(rec)]) == EXIT_OK
    assert load_cube(rec).bands == 2


@pytest.mark.parametrize("command", ["encode", "rd"])
def test_bad_exclusion_list_is_a_usage_error(tmp_path, cube_file, command, capsys):
    outputs = [str(tmp_path / "out.bip")] if command == "encode" else []
    assert run([command, str(cube_file), *outputs, "--exclude", "a,b", *FAST]) == EXIT_USAGE
    assert "bad exclusion list" in capsys.readouterr().err
