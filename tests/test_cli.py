import numpy as np
import pytest

from hsicodec.cli import EXIT_CORRUPT, EXIT_IO, EXIT_OK, EXIT_USAGE, run
from hsicodec.codec import TAG_PARAMS, Bitstream
from hsicodec.cube import HyperCube, load_cube, store_cube
from hsicodec.entropy import decode_bytes, encode_bytes, segment_from_bytes, segment_to_bytes


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


def test_info_on_truncated_stream(tmp_path, cube_file):
    out = tmp_path / "out.bip"
    assert run(["encode", str(cube_file), str(out), *FAST]) == EXIT_OK
    blob = out.read_bytes()
    out.write_bytes(blob[: len(blob) // 2])
    assert run(["info", str(out)]) == EXIT_CORRUPT


def test_decode_garbage_stream(tmp_path):
    bad = tmp_path / "bad.bip"
    bad.write_bytes(b"not a stream at all")
    assert run(["decode", str(bad), str(tmp_path / "x.raw")]) == EXIT_CORRUPT


@pytest.mark.parametrize(
    "field, value", [("comp_qstep", 0), ("comp_qstep", -5), ("comp_lambda", float("nan"))]
)
def test_decode_corrupt_compensation_header(tmp_path, cube_file, field, value):
    out = tmp_path / "out.bip"
    assert run(["encode", str(cube_file), str(out), *FAST]) == EXIT_OK
    bs = Bitstream.from_bytes(out.read_bytes())
    setattr(bs.header, field, value)
    out.write_bytes(bs.to_bytes())
    assert run(["decode", str(out), str(tmp_path / "x.raw")]) == EXIT_CORRUPT


def test_decode_short_params_payload(tmp_path, cube_file):
    out = tmp_path / "out.bip"
    assert run(["encode", str(cube_file), str(out), *FAST]) == EXIT_OK
    bs = Bitstream.from_bytes(out.read_bytes())
    assert bs.segments[1][0] == TAG_PARAMS
    payload = decode_bytes(segment_from_bytes(bs.segments[1][1]))
    bs.segments[1] = (TAG_PARAMS, segment_to_bytes(encode_bytes(payload[:10])))
    out.write_bytes(bs.to_bytes())
    assert run(["decode", str(out), str(tmp_path / "x.raw")]) == EXIT_CORRUPT


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


@pytest.mark.parametrize("flag", [["--max-epochs", "-3"], ["--mse-goal", "-1"], ["--mse-goal", "nan"]])
def test_bad_training_flag_is_usage_error(tmp_path, cube_file, flag):
    assert run(["encode", str(cube_file), str(tmp_path / "o.bip"), *flag]) == EXIT_USAGE
    assert not (tmp_path / "o.bip").exists()


def test_rd_command_csv(tmp_path, cube_file, capsys):
    capsys.readouterr()
    rc = run(["rd", str(cube_file), "--lambdas", "0.0,0.05", *FAST])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "lambda,bpppb,mean_psnr_db,mean_ssim"
    assert len(out) == 3


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
