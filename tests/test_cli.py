"""CLI and training-loop tests, run in-process through main()."""

import argparse
import json
import os
import re
import shlex
import struct
import subprocess
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import encdiff
from encdiff.cli import (EXIT_CONFIG_ERROR, EXIT_NUMERICS, EXIT_OK, EXIT_VERIFY_FAILED,
                         build_parser, main)
from encdiff.config import _SECTIONS, RunConfig
from encdiff.data import IDX_U8_RANK3_MAGIC
from encdiff.encoder import ENCODERS
from encdiff.errors import ConfigError
from encdiff.io_utils import write_pgm
from encdiff.train import restore, train


# --- readers for the stamped artifacts; the program itself reads neither format

def read_csv(path: str) -> tuple[list[str], list[list[str]], str]:
    """Read back a stamped CSV; returns (header, rows, config_hash)."""
    config_hash = ""
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                if "config_hash=" in line:
                    config_hash = line.split("config_hash=", 1)[1].strip()
                continue
            if not header:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return header, rows, config_hash


def read_pgm(path: str) -> tuple[np.ndarray, str]:
    """Read back a P5 file written by write_pgm; returns (image, config_hash)."""
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(b"P5"):
        raise ValueError(f"not a binary PGM file: {path}")
    config_hash = ""
    pos = 2
    tokens: list[bytes] = []
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            end = raw.index(b"\n", pos)
            comment = raw[pos:end].decode("ascii")
            if "config_hash=" in comment:
                config_hash = comment.split("config_hash=", 1)[1].strip()
            pos = end + 1
            continue
        end = pos
        while end < len(raw) and not raw[end : end + 1].isspace():
            end += 1
        tokens.append(raw[pos:end])
        pos = end
    pos += 1  # single whitespace after maxval
    w, h, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise ValueError("only 8-bit PGM supported")
    image = np.frombuffer(raw[pos : pos + w * h], dtype=np.uint8).reshape(h, w).copy()
    return image, config_hash


def _train_args(out_dir, encoder="identity", steps=40, extra=()):
    return [
        "train",
        "--dataset", "gaussian2d",
        "--n-points", "256",
        "--encoder", encoder,
        "--steps", str(steps),
        "--batch-size", "16",
        "--denoiser-width", "16",
        "--encoder-width", "8",
        "--seed", "11",
        "--out-dir", out_dir,
        *extra,
    ]


def _raw_checkpoint(header: bytes, header_len: int | None = None) -> bytes:
    length = len(header) if header_len is None else header_len
    return b"ENC1" + struct.pack("<I", length) + header


_FULL_HEADER = (b'{"format_version": 2, "step": 0, "config_hash": "", '
                b'"config_text": "[model]\\nencoder = nt\\n", '
                b'"tensors": [{"name": "w", "shape": [2], "offset": 0}]}')


def _header_edit(change):
    """Edit for a real checkpoint's bytes that applies change() to its parsed header."""
    def edit(raw: bytes) -> bytes:
        (header_len,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8:8 + header_len])
        change(header)
        return _raw_checkpoint(json.dumps(header).encode()) + raw[8 + header_len:]
    return edit


def _edited_header(**fields):
    """Edit that replaces the given header fields."""
    return _header_edit(lambda header: header.update(fields))


def _edited_config(header, text: str) -> None:
    """Replace a header's config text, and its config_hash with the text's
    hash when the text parses, so that the checkpoint still restores."""
    header["config_text"] = text
    try:
        header["config_hash"] = RunConfig.from_text(text).hash()
    except ConfigError:
        pass


def _appended_bytes(raw: bytes) -> bytes:
    """A complete checkpoint with 17 bytes after its last tensor."""
    return raw + bytes(17)


def _edited_tensor(tensor, **fields):
    """Edit that replaces the given fields of the named tensor's entry."""
    def change(header):
        (entry,) = [e for e in header["tensors"] if e["name"] == tensor]
        entry.update(fields)
    return _header_edit(change)


def _shared_offset(header):
    """The second tensor entry points at the first one's bytes."""
    first, second = header["tensors"][:2]
    second["offset"] = first["offset"]


def _appended_tensor(shape):
    """Edit that adds a tensor entry of this shape after the last one, with no bytes."""
    def change(header):
        last = header["tensors"][-1]
        offset = last["offset"] + 8 * int(np.prod(last["shape"]))
        header["tensors"].append({"name": "extra", "shape": shape, "offset": offset})
    return _header_edit(change)


# the error that cases whose file passes every other check must name
_NAMED_FAULTS = {
    "trailing-bytes": "checkpoint has 17 bytes after its last tensor",
    "wrong-config-hash": "checkpoint config_hash 'deadbeef' is not the hash of its config text",
}


def _removed_config_key(header):
    """Make the config text one written while β1 was a config key: it lists beta1."""
    if "\nbeta1 = " not in header["config_text"]:
        header["config_text"] = header["config_text"].replace("[train]\n",
                                                              "[train]\nbeta1 = 0.9\n")


def _tiny_idx(tmp_path) -> str:
    """A 2-item IDX file of 3x3 images, whose dimension 9 fits no 2-D model."""
    idx_path = str(tmp_path / "tiny.idx")
    with open(idx_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, 2, 3, 3))
        f.write(bytes(range(18)))
    return idx_path


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("run"))
    assert main(_train_args(out_dir, encoder="trainable", steps=60)) == EXIT_OK
    return out_dir


class TestTrainCommand:
    def test_writes_checkpoint_and_curve(self, trained_run):
        assert os.path.exists(os.path.join(trained_run, "model.ckpt"))
        header, rows, config_hash = read_csv(os.path.join(trained_run, "loss_curve.csv"))
        assert header == ["step", "diffusion", "latent", "reconstruction", "total", "bpd"]
        assert len(rows) >= 2
        assert config_hash

    def test_rerun_reproduces_loss_curve(self, tmp_path):
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(_train_args(d1, steps=30)) == EXIT_OK
        assert main(_train_args(d2, steps=30)) == EXIT_OK
        with open(os.path.join(d1, "loss_curve.csv"), "rb") as f1, \
                open(os.path.join(d2, "loss_curve.csv"), "rb") as f2:
            assert f1.read() == f2.read()

    def test_checkpoint_restores_model(self, trained_run):
        model, encoder, store, config, schedule = restore(
            os.path.join(trained_run, "model.ckpt"))
        assert config.encoder == "trainable"
        assert model.d == 2
        assert store.step == 60
        z = np.zeros((1, 2))
        assert np.all(np.isfinite(model.predict_v(z, 1.0)))

    def test_trainable_and_nt_log_identical_first_step(self, tmp_path):
        """Zero-initialized inner network: the first logged diffusion loss of a
        trainable-encoder run matches the damping-encoder run bit-for-bit."""
        rows = {}
        for enc in ("nt", "trainable"):
            out = str(tmp_path / enc)
            assert main(_train_args(out, encoder=enc, steps=2)) == EXIT_OK
            _, data, _ = read_csv(os.path.join(out, "loss_curve.csv"))
            rows[enc] = data[0][1]
        assert rows["nt"] == rows["trainable"]

    def test_bad_flag_value_is_config_error(self, tmp_path):
        args = _train_args(str(tmp_path / "x"))
        args[args.index("--encoder") + 1] = "identity"
        args += ["--lambda-max", "-20.0"]  # below lambda_min
        assert main(args) == EXIT_CONFIG_ERROR

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_numerical_blowup_exits_3_and_keeps_checkpoint(self, tmp_path, capsys):
        out = str(tmp_path / "blowup")
        args = _train_args(out, steps=50, extra=["--lr", "1e150"])
        assert main(args) == EXIT_NUMERICS
        # parameters in the retained checkpoint are finite (pre-abort state)
        model, _encoder, store, _config, _schedule = restore(
            os.path.join(out, "model.ckpt"))
        for tensor in store.parameters():
            assert np.all(np.isfinite(tensor.data))
        # the abort names the step that failed: the one after the retained state
        err = capsys.readouterr().err
        assert f"numerical abort: training step {store.step + 1}: " in err, err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_abort_in_the_step_metrics_names_the_step_and_keeps_checkpoint(self, tmp_path,
                                                                          capsys):
        """At this lr the first update is accepted with finite parameters whose
        logged metrics overflow: the abort names that step, and the checkpoint
        holds the parameters after its update."""
        out = str(tmp_path / "blowup")
        args = _train_args(out, encoder="trainable", steps=50, extra=["--lr", "1e308"])
        assert main(args) == EXIT_NUMERICS
        err = capsys.readouterr().err
        assert "numerical abort: training step 1: " in err and "'encoder.out'" in err, err
        _model, _encoder, store, _config, _schedule = restore(os.path.join(out, "model.ckpt"))
        assert store.step == 1
        for tensor in store.parameters():
            assert np.all(np.isfinite(tensor.data))

    def test_config_written_alongside_checkpoint(self, trained_run):
        path = os.path.join(trained_run, "config.ini")
        assert os.path.exists(path)
        config = RunConfig.from_file(path)
        assert config.encoder == "trainable"

    def test_checkpoint_header_is_the_config_and_the_arrays(self, trained_run):
        raw = Path(trained_run, "model.ckpt").read_bytes()
        (header_len,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8:8 + header_len])
        assert set(header) == {"format_version", "step", "config_hash", "config_text",
                               "tensors"}
        assert header["format_version"] == 2
        config = RunConfig.from_text(header["config_text"])
        assert config.encoder == "trainable"
        assert header["config_hash"] == config.hash()

    @pytest.mark.parametrize("umask, mode", [pytest.param(0o022, 0o644, id="umask-022"),
                                             pytest.param(0o077, 0o600, id="umask-077")])
    def test_artifacts_follow_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            assert main(_train_args(str(tmp_path), steps=2)) == EXIT_OK
        finally:
            os.umask(old)
        for name in ("config.ini", "loss_curve.csv", "model.ckpt"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


_ALLOCATION_LIMIT = 2_000_000_000  # bytes of address space for the child below


def _main_in_child(args: list[str], setup: str = "") -> subprocess.CompletedProcess:
    """Run encdiff's main(args) in a child process, after the statements setup."""
    code = f"import sys\n{setup}from encdiff.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    package_root = str(Path(encdiff.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root,
                                                       os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def _main_with_memory_limit(args: list[str]) -> subprocess.CompletedProcess:
    """Run encdiff's main(args) in a child process whose address space is capped."""
    return _main_in_child(args, "import resource\nresource.setrlimit(resource.RLIMIT_AS, "
                                f"({_ALLOCATION_LIMIT}, {_ALLOCATION_LIMIT}))\n")


def test_numerical_abort_prints_one_line(tmp_path):
    """From the command line, an overflow that aborts training leaves one stderr
    line, the abort that names its step and layer: numpy's floating-point
    warnings, which would come first with their source lines, are silenced."""
    result = _main_in_child(["train", "--dataset", "gaussian2d", "--encoder", "trainable",
                             "--lr", "1e308", "--steps", "3", "--n-points", "64",
                             "--denoiser-width", "8", "--encoder-width", "8",
                             "--out-dir", str(tmp_path / "out")])
    assert result.returncode == EXIT_NUMERICS, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical abort: training step 1: "), \
        result.stderr


class TestImpossibleAllocation:
    """A width the machine cannot allocate is a config error, not a traceback."""

    def test_train(self, tmp_path):
        out = tmp_path / "out"
        result = _main_with_memory_limit(
            _train_args(str(out), steps=2, extra=["--denoiser-width", "3000000"]))
        assert result.returncode == EXIT_CONFIG_ERROR, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("config error: out of memory")
        assert not out.exists()

    def test_eval_of_checkpoint_asking_for_it(self, trained_run, tmp_path):
        edit = _header_edit(lambda h: _edited_config(h, "[model]\ndenoiser_width = 3000000\n"))
        path = tmp_path / "wide.ckpt"
        path.write_bytes(edit(Path(trained_run, "model.ckpt").read_bytes()))
        out = tmp_path / "out"
        result = _main_with_memory_limit(["eval", str(path), "--out-dir", str(out)])
        assert result.returncode == EXIT_CONFIG_ERROR, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("config error: out of memory")
        assert not out.exists()

    def test_memory_error_in_process(self, tmp_path, capsys, monkeypatch):
        """main()'s own mapping of a MemoryError, which the capped child processes
        above reach out of sight of this process; nothing is allocated."""
        def out_of_memory(args):
            raise MemoryError("a stand-in")

        monkeypatch.setattr(encdiff.cli, "cmd_train", out_of_memory)
        out = tmp_path / "out"
        assert main(["train", "--out-dir", str(out)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "config error: out of memory (a stand-in)\n"
        assert not out.exists()


class TestConfigFile:
    def test_round_trip(self):
        config = RunConfig(encoder="nt", steps=123, lr=0.01)
        text = config.to_text()
        back = RunConfig.from_text(text)
        assert back == config

    def test_sections_list_every_field_once(self):
        """A field missing from _SECTIONS would be dropped from to_text(), and so
        from every checkpoint."""
        listed = [key for keys in _SECTIONS.values() for key in keys]
        assert sorted(listed) == sorted(f.name for f in dataclass_fields(RunConfig))

    def test_percent_sign_is_literal(self):
        config = RunConfig(dataset="idx", idx_path="data/50%/train.idx")
        assert RunConfig.from_text(config.to_text()) == config

    def test_flags_override_file(self, tmp_path):
        path = str(tmp_path / "run.ini")
        with open(path, "w") as f:
            f.write(RunConfig(steps=5, encoder="identity").to_text())
        out = str(tmp_path / "out")
        args = ["train", "--config", path, "--encoder", "nt", "--steps", "3",
                "--out-dir", out, "--n-points", "64", "--batch-size", "8",
                "--denoiser-width", "8"]
        assert main(args) == EXIT_OK
        model, encoder, store, config, _ = restore(os.path.join(out, "model.ckpt"))
        assert config.encoder == "nt"
        assert store.step == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = str(tmp_path / "bad.ini")
        with open(path, "w") as f:
            f.write("[train]\nbogus_key = 1\n")
        assert main(["train", "--config", path]) == EXIT_CONFIG_ERROR

    def test_missing_file_rejected(self):
        assert main(["train", "--config", "/nonexistent.ini"]) == EXIT_CONFIG_ERROR

    def test_missing_checkpoint_rejected(self, tmp_path):
        assert main(["eval", str(tmp_path / "nope.ckpt")]) == EXIT_CONFIG_ERROR
        assert main(["sample", str(tmp_path / "nope.ckpt")]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("raw", [
        pytest.param(b"ENC1\x01\x00", id="shorter-than-8-bytes"),
        pytest.param(_raw_checkpoint(b"\xff\xfe{"), id="header-not-utf8"),
        pytest.param(_raw_checkpoint(b"{garbled"), id="header-not-json"),
        pytest.param(_raw_checkpoint(b"[1, 2]"), id="header-not-an-object"),
        pytest.param(_raw_checkpoint(b'{"step": 10}'), id="header-missing-key"),
        pytest.param(_raw_checkpoint(_FULL_HEADER.replace(b'"offset": 0', b'"at": 0')),
                     id="tensor-entry-missing-key"),
        pytest.param(_raw_checkpoint(_FULL_HEADER), id="payload-missing"),
        pytest.param(_appended_bytes, id="trailing-bytes"),
        pytest.param(_raw_checkpoint(b"{}", header_len=1000), id="header-past-end"),
        pytest.param(_edited_header(format_version=1), id="format-version-1"),
        pytest.param(_edited_header(step=-1), id="step-negative"),
        pytest.param(_edited_header(step=1.5), id="step-not-an-int"),
        pytest.param(_edited_header(config_text="[schedule]\nlambda_max = inf\n"),
                     id="config-text-lambda-max-inf"),
        pytest.param(_edited_tensor("param/denoiser.out.b", name="param/denoiser.out.c"),
                     id="no-denoiser-out-b"),
        pytest.param(_edited_tensor("param/denoiser.out.b", shape=[1, 2]),
                     id="denoiser-out-b-not-1d"),
        pytest.param(_edited_header(config_text="lr = 1"), id="config-text-without-section"),
        pytest.param(_edited_header(config_text=5), id="config-text-not-a-string"),
        pytest.param(_edited_header(config_text="[model]\ndenoiser_width = -3\n"),
                     id="config-text-width-negative"),
        pytest.param(_header_edit(_shared_offset), id="tensors-share-an-offset"),
        pytest.param(_edited_header(config_text="[schedule]\nlambda_min = -%.0\n"),
                     id="config-text-percent-sign"),
        pytest.param(_appended_tensor([-1, 2]), id="shape-negative"),
        pytest.param(_header_edit(_removed_config_key), id="removed-config-key"),
        pytest.param(_edited_header(config_hash="deadbeef"), id="wrong-config-hash"),
    ])
    def test_malformed_checkpoint_rejected(self, trained_run, tmp_path, capsys, request, raw):
        if callable(raw):
            raw = raw(Path(trained_run, "model.ckpt").read_bytes())
        path = tmp_path / "bad.ckpt"
        path.write_bytes(raw)
        assert main(["eval", str(path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert _NAMED_FAULTS.get(request.node.callspec.id, "config error: ") in err, err

    def test_hash_stable(self):
        assert RunConfig().hash() == RunConfig().hash()
        assert RunConfig().hash() != RunConfig(steps=7).hash()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzzed.ckpt"


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_checkpoint_restores_or_is_config_error(trained_run, fuzz_path, data):
    """A truncated or bit-flipped checkpoint either restores or raises ConfigError
    (exit 2).  Flips are drawn from the magic, length and header as often as from
    the whole file, of which the header is a small share."""
    raw = bytearray(Path(trained_run, "model.ckpt").read_bytes())
    (header_len,) = struct.unpack("<I", raw[4:8])
    bit = st.integers(0, 8 * (8 + header_len) - 1) | st.integers(0, 8 * len(raw) - 1)
    for k in data.draw(st.lists(bit, min_size=1, max_size=3), label="flipped bits"):
        raw[k // 8] ^= 1 << (k % 8)
    cut = data.draw(st.none() | st.integers(0, len(raw) - 1), label="truncated to")
    fuzz_path.write_bytes(raw[:cut])
    try:
        restore(str(fuzz_path))
    except ConfigError:
        pass


@pytest.mark.parametrize("command, flags", [
    pytest.param("eval", ["--n-mc", "0"], id="eval-n-mc-0"),
    pytest.param("eval", ["--n-mc", "1"], id="eval-n-mc-1"),
    pytest.param("eval", ["--n-items", "0"], id="eval-n-items-0"),
    pytest.param("eval", ["--n-items", "-3"], id="eval-n-items-negative"),
    pytest.param("eval", ["--profile-out", "profile.csv", "--profile-points", "-1"],
                 id="eval-profile-points-negative"),
    pytest.param("sample", ["--steps", "0"], id="sample-steps-0"),
    pytest.param("sample", ["--n-samples", "0"], id="sample-n-samples-0"),
    pytest.param("sample", ["--trajectory-every", "-4"], id="sample-trajectory-every-negative"),
    pytest.param("sample", ["--pixels"], id="sample-pixels-non-square-d"),
    pytest.param("heatmap", ["--item", "999999"], id="heatmap-item-out-of-range"),
    pytest.param("heatmap", ["--window", "0"], id="heatmap-window-0"),
    pytest.param("heatmap", ["--t-values", "1.5"], id="heatmap-t-above-1"),
    pytest.param("schedule-report", ["--points", "-1"], id="schedule-report-points-negative"),
    # an_dir is an existing directory and a_file an existing file; eval writes
    # eval.csv into an_dir, then fails to write its profile over it
    pytest.param("eval", ["--out-dir", "an_dir", "--profile-out", "an_dir"],
                 id="eval-profile-out-is-a-directory"),
    pytest.param("sample", ["--out-dir", "a_file"], id="sample-out-dir-is-a-file"),
])
def test_bad_value_is_config_error(trained_run, tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    (tmp_path / "an_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    checkpoint = [] if command == "schedule-report" else [os.path.join(trained_run, "model.ckpt")]
    flags = [str(tmp_path / f) if f.endswith((".csv", "an_dir", "a_file")) else f
             for f in flags]
    assert main([command, *checkpoint, "--out-dir", str(out), *flags]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


_SMALL_TRAIN = ["--steps", "2", "--n-points", "64", "--batch-size", "8"]


@pytest.mark.parametrize("command, flags, ini, error", [
    pytest.param("train", _SMALL_TRAIN, "cov_scale = 1\n", "unparsable config file",
                 id="ini-without-section-header"),
    pytest.param("train", _SMALL_TRAIN, b"[data]\ncov_scale = \xff\n", "unparsable config file",
                 id="ini-not-utf8"),
    pytest.param("train", _SMALL_TRAIN, "[data]\ncov_scale = -1\n", "cov_scale must be >= 0",
                 id="cov-scale-negative"),
    pytest.param("train", _SMALL_TRAIN, "[data]\nmean_x = inf\n", "mean_x must be finite",
                 id="mean-x-inf"),
    pytest.param("train", [*_SMALL_TRAIN, "--encoder-width", "-3"], None,
                 "encoder_width must be >= 1", id="encoder-width-negative"),
    pytest.param("train", [*_SMALL_TRAIN, "--denoiser-width", "0"], None,
                 "denoiser_width must be >= 1", id="denoiser-width-0"),
    # the hidden-layer counts and the optimizer's β1, β2 and ε̂ are no config keys
    pytest.param("train", _SMALL_TRAIN, "[model]\ndenoiser_hidden = 0\n",
                 "unknown config key 'denoiser_hidden'", id="denoiser-hidden-0"),
    pytest.param("train", _SMALL_TRAIN, "[model]\nencoder_hidden = 0\n",
                 "unknown config key 'encoder_hidden'", id="encoder-hidden-0"),
    pytest.param("train", [*_SMALL_TRAIN, "--lr", "nan"], None, "lr must be finite",
                 id="lr-nan"),
    pytest.param("train", _SMALL_TRAIN, "[train]\nbeta1 = 1.0\n", "unknown config key 'beta1'",
                 id="beta1-1"),
    pytest.param("train", _SMALL_TRAIN, "[train]\nbeta2 = -0.1\n", "unknown config key 'beta2'",
                 id="beta2-negative"),
    pytest.param("train", _SMALL_TRAIN, "[train]\neps_hat = 0\n", "unknown config key 'eps_hat'",
                 id="eps-hat-0"),
    pytest.param("schedule-report", ["--lambda-max", "inf"], None, "span", id="lambda-max-inf"),
    pytest.param("schedule-report", [], "[schedule]\nlambda_min = -inf\n", "span",
                 id="lambda-min-inf"),
    # the `=` form: argparse would read a bare -1e308 as a flag
    pytest.param("schedule-report", ["--lambda-max=800"], None, "exp(lambda_max) overflows",
                 id="lambda-max-snr-overflows"),
    pytest.param("schedule-report", ["--lambda-max=1e308", "--lambda-min=-1e308"], None, "span",
                 id="lambda-span-overflows"),
    pytest.param("train", [*_SMALL_TRAIN, "--seed=-1"], None, "seed must be >= 0",
                 id="train-seed-negative"),
    pytest.param("verify", ["--quick", "--seed=-1"], None, "seed must be >= 0",
                 id="verify-seed-negative"),
    pytest.param("train", [*_SMALL_TRAIN, "--dataset", "idx"], None,
                 "dataset 'idx' requires idx_path", id="idx-without-idx-path"),
    pytest.param("train", [*_SMALL_TRAIN, "--lr", "0"], None, "lr must be positive", id="lr-0"),
    pytest.param("train", _SMALL_TRAIN, "[model]\nencoder = foo\n", "unknown encoder 'foo'",
                 id="encoder-foo"),
    pytest.param("train", _SMALL_TRAIN, "[sample]\ncounterterm = maybe\n",
                 "counterterm must be on/off/auto, got 'maybe'", id="counterterm-maybe"),
    # a bytes flag is an input file's content, passed as the file's path
    pytest.param("train", [*_SMALL_TRAIN, "--dataset", "idx", "--idx-path", b"\x00\x00\x08"],
                 None, "truncated IDX file (only 3 bytes)", id="idx-of-3-bytes"),
    pytest.param("train", [*_SMALL_TRAIN, "--dataset", "idx", "--idx-path",
                           struct.pack(">IIII", IDX_U8_RANK3_MAGIC, 2, 3, 3)[:10]],
                 None, "truncated IDX header at byte 10", id="idx-header-ends-at-byte-10"),
])
def test_bad_config_value_is_config_error(tmp_path, capsys, command, flags, ini, error):
    out = tmp_path / "out"
    config = []
    if ini is not None:
        (tmp_path / "run.ini").write_bytes(ini if isinstance(ini, bytes) else ini.encode())
        config = ["--config", str(tmp_path / "run.ini")]
    data = tmp_path / "data.idx"
    for flag in flags:
        if isinstance(flag, bytes):
            data.write_bytes(flag)
    flags = [str(data) if isinstance(flag, bytes) else flag for flag in flags]
    assert main([command, *config, *flags, "--out-dir", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and error in err
    assert not out.exists()


def _subcommand_options() -> dict[str, list[argparse.Action]]:
    """Each subcommand's optional arguments, without -h/--help."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: [a for a in p._actions if a.option_strings and "-h" not in a.option_strings]
            for name, p in sub.choices.items()}


def _subcommand_flags() -> dict[str, set[str]]:
    """Option strings each subcommand's parser accepts, without -h/--help."""
    return {name: {flag for action in actions for flag in action.option_strings}
            for name, actions in _subcommand_options().items()}


def test_each_subcommand_takes_exactly_the_flags_it_reads():
    assert _subcommand_flags() == {
        "train": {"--config", "--seed", "--out-dir", "--steps", "--encoder", "--lambda-max",
                  "--lambda-min", "--counterterm", "--n-mc", "--dataset", "--idx-path",
                  "--batch-size", "--lr", "--denoiser-width", "--encoder-width",
                  "--n-points"},
        "eval": {"--out-dir", "--n-mc", "--dataset", "--idx-path", "--n-items",
                 "--profile-out", "--profile-points"},
        "sample": {"--out-dir", "--seed", "--steps", "--counterterm", "--n-samples",
                   "--pixels", "--stochastic-decode", "--save-latents", "--trajectory-every"},
        "heatmap": {"--out-dir", "--dataset", "--idx-path", "--item", "--t-values", "--window"},
        "schedule-report": {"--config", "--out-dir", "--lambda-max", "--lambda-min", "--points"},
        "verify": {"--config", "--seed", "--out-dir", "--lambda-max", "--lambda-min", "--quick"},
    }


@pytest.mark.parametrize("command, flags", [
    pytest.param("eval", ["--seed", "5"], id="eval-seed"),
    pytest.param("sample", ["--config", "x.ini"], id="sample-config"),
    pytest.param("heatmap", ["--n-mc", "4"], id="heatmap-n-mc"),
    pytest.param("schedule-report", ["--encoder", "nt"], id="schedule-report-encoder"),
    pytest.param("verify", ["--steps", "3"], id="verify-steps"),
])
def test_unread_flag_rejected(trained_run, tmp_path, command, flags):
    out = tmp_path / "out"
    checkpoint = ([os.path.join(trained_run, "model.ckpt")]
                  if command in ("eval", "sample", "heatmap") else [])
    with pytest.raises(SystemExit) as exc:
        main([command, *checkpoint, *flags, "--out-dir", str(out)])
    assert exc.value.code == EXIT_CONFIG_ERROR
    assert not out.exists()


# what a fuzzed flag or config field is set to: negative, 0, 1, ±huge, nan, ±inf,
# non-numeric, empty and the INI interpolation sign
_EDGES = ["-1", "0", "1", "1e308", "-1e308", "nan", "inf", "-inf", "abc", "", "%"]
_CHECKPOINT_COMMANDS = ("eval", "sample", "heatmap")


# (flag, is_switch) for each flag of each subcommand, but --config, which carries
# the fuzzed config text
_FLAGS = {name: [(a.option_strings[0], a.nargs == 0) for a in actions
                 if a.option_strings[0] != "--config"]
          for name, actions in _subcommand_options().items()}
_FIELDS = [f.name for f in dataclass_fields(RunConfig)]


@st.composite
def _cli_calls(draw):
    """(subcommand, flags, {config field: value}).  A run that passes every check
    stays small: train takes its step count, point count, batch size and widths
    from small ranges, and verify runs --quick."""
    command = draw(st.sampled_from(sorted(_FLAGS)), label="subcommand")
    small = {"train": {"--steps": (1, 3), "--n-points": (1, 64), "--batch-size": (1, 16),
                       "--denoiser-width": (1, 8), "--encoder-width": (1, 8)}}.get(command, {})
    flags = [f"{flag}={draw(st.integers(lo, hi), label=flag)}"
             for flag, (lo, hi) in small.items()]
    if command == "verify":
        flags.append("--quick")
    for flag, is_switch in draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=3,
                                         unique=True), label="fuzzed flags"):
        flags.append(flag if is_switch else f"{flag}={draw(st.sampled_from(_EDGES), label=flag)}")
    config = draw(st.dictionaries(st.sampled_from(_FIELDS), st.sampled_from(_EDGES),
                                  max_size=2), label="fuzzed config fields")
    return command, flags, config


def _with_values(config_text: str, values: dict[str, str]) -> str:
    for key, value in values.items():
        config_text = re.sub(rf"^{key} = .*$", f"{key} = {value}", config_text, flags=re.M)
    return config_text


@pytest.fixture(scope="module")
def cli_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@example(call=("verify", ["--quick", "--lambda-min=-1e308"], {}))
@example(call=("eval", ["--n-mc=1"], {}))
@given(call=_cli_calls())
def test_fuzzed_cli_exits_with_a_documented_code(trained_run, cli_fuzz_dir, call):
    """Any subcommand, with edge values in its flags and in its config text (the
    --config file, or the checkpoint's), ends in exit 0, 1, 2 or 3 and raises
    nothing else.  Relative paths land in a scratch directory."""
    command, flags, config = call
    if command in _CHECKPOINT_COMMANDS:
        edit = _header_edit(lambda h: _edited_config(h, _with_values(h["config_text"], config)))
        source = cli_fuzz_dir / "fuzzed.ckpt"
        source.write_bytes(edit(Path(trained_run, "model.ckpt").read_bytes()))
        source_args = [str(source)]
    else:
        source = cli_fuzz_dir / "run.ini"
        source.write_text(_with_values(RunConfig().to_text(), config))
        source_args = [f"--config={source}"]
    cwd = os.getcwd()
    os.chdir(cli_fuzz_dir)
    try:
        code = main([command, *source_args, "--out-dir=out", *flags])
    except SystemExit as exc:  # argparse rejects a flag or its value
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_CONFIG_ERROR, EXIT_NUMERICS)


# each of an IDX header's n, rows and cols: empty, small, and the largest u32
_IDX_DIMS = [0, 1, 2, 3, 2**32 - 1]
# payloads of this many bytes or fewer may be written whole
_IDX_MAX_PAYLOAD = 4096


@st.composite
def _idx_files(draw):
    """(magic, n, rows, cols, payload length).  The payload is exact, one byte
    short, one byte long or empty; it is empty unless the header's n·rows·cols
    is at most _IDX_MAX_PAYLOAD bytes, so no file is large."""
    # a valid magic and the small dimensions are drawn as often as all the rest,
    # so that some files reach training
    magic = draw(st.just(IDX_U8_RANK3_MAGIC) | st.sampled_from([0x00000801, 0x00000D03, 0,
                                                                 2**32 - 1]), label="magic")
    n, rows, cols = (draw(st.sampled_from(_IDX_DIMS[1:4]) | st.sampled_from(_IDX_DIMS),
                          label=name) for name in ("n", "rows", "cols"))
    size = n * rows * cols
    if not 0 < size <= _IDX_MAX_PAYLOAD:
        return magic, n, rows, cols, 0
    return magic, n, rows, cols, draw(st.just(size) | st.sampled_from([size - 1, size + 1, 0]),
                                      label="payload length")


@pytest.fixture(scope="module")
def idx_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("idx_fuzz")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@example(idx=(IDX_U8_RANK3_MAGIC, 3, 3, 3, 27), encoder="trainable")
@example(idx=(IDX_U8_RANK3_MAGIC, 3, 3, 3, 28), encoder="trainable")
@given(idx=_idx_files(), encoder=st.sampled_from(sorted(ENCODERS)))
def test_fuzzed_idx_file_exits_with_a_documented_code(idx_fuzz_dir, idx, encoder):
    """train --dataset idx on an IDX file with a fuzzed magic, dimensions and
    payload length exits 0 or 2; after a 0, so do eval, sample --pixels and
    heatmap on its checkpoint."""
    magic, n, rows, cols, length = idx
    path = idx_fuzz_dir / "fuzzed.idx"
    payload = np.random.default_rng(length).integers(0, 256, size=length, dtype=np.uint8)
    path.write_bytes(struct.pack(">IIII", magic, n, rows, cols) + payload.tobytes())
    out = idx_fuzz_dir / "out"
    data = ["--dataset", "idx", "--idx-path", str(path)]
    code = main(["train", *data, "--encoder", encoder, "--steps", "2", "--batch-size", "4",
                 "--denoiser-width", "4", "--encoder-width", "4", "--out-dir", str(out)])
    assert code in (EXIT_OK, EXIT_CONFIG_ERROR)
    if code == EXIT_OK:
        ckpt = str(out / "model.ckpt")
        for command in (["eval", ckpt, *data, "--n-items", "2", "--n-mc", "4"],
                        ["sample", ckpt, "--pixels", "--steps", "4", "--n-samples", "2"],
                        ["heatmap", ckpt, *data]):
            assert main([*command, "--out-dir", str(out)]) in (EXIT_OK, EXIT_CONFIG_ERROR)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_matches_parser():
    """The README's CLI examples use only accepted flags, and its per-subcommand
    flag lines list exactly what each parser accepts."""
    text = README.read_text()
    accepted = _subcommand_flags()
    block = re.search(r"## CLI\n.*?```bash\n(.*?)```", text, re.S).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("encdiff ")]
    assert commands
    for line in commands:
        tokens = shlex.split(line)
        flags = {t for t in tokens if t.startswith("--")}
        assert flags <= accepted[tokens[1]], f"README: {line!r} uses {flags - accepted[tokens[1]]}"
    listed = {m.group(1): set(re.findall(r"`(--[a-z-]+)`", m.group(2)))
              for m in re.finditer(r"^- `encdiff ([a-z-]+)`:(.*(?:\n  .*)*)", text, re.M)}
    assert listed == accepted


def test_readme_library_example_runs():
    """The README's Python example runs as written."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["loss_w2"] > namespace["loss_opt"]


class TestEvalCommand:
    def test_eval_writes_breakdown(self, trained_run, tmp_path, capsys):
        out = str(tmp_path / "eval")
        args = ["eval", os.path.join(trained_run, "model.ckpt"),
                "--n-mc", "8", "--n-items", "4", "--out-dir", out]
        assert main(args) == EXIT_OK
        header, rows, config_hash = read_csv(os.path.join(out, "eval.csv"))
        assert header == ["encoder", "total", "latent", "diffusion", "reconstruction",
                          "diffusion_stderr"]
        (row,) = rows
        values = dict(zip(header, row))
        assert float(values["total"]) == pytest.approx(
            float(values["diffusion"]) + float(values["latent"])
            + float(values["reconstruction"]), abs=1e-9)
        assert values["encoder"] == "trainable"
        assert config_hash

    def test_eval_profile_export(self, trained_run, tmp_path):
        out = str(tmp_path / "eval2")
        profile = str(tmp_path / "profile.csv")
        args = ["eval", os.path.join(trained_run, "model.ckpt"), "--n-mc", "8",
                "--n-items", "2", "--out-dir", out, "--profile-out", profile,
                "--profile-points", "5"]
        assert main(args) == EXIT_OK
        header, rows, _ = read_csv(profile)
        assert header == ["t", "lambda", "integrand_mean", "integrand_stderr"]
        assert len(rows) == 5

    def test_dimension_mismatch_is_config_error(self, trained_run, tmp_path):
        args = ["eval", os.path.join(trained_run, "model.ckpt"),
                "--dataset", "idx", "--idx-path", _tiny_idx(tmp_path),
                "--out-dir", str(tmp_path / "evalx")]
        assert main(args) == EXIT_CONFIG_ERROR

    def test_non_finite_checkpoint_array_is_config_error(self, trained_run, tmp_path, capsys):
        """Setting the exponent bits of one weight makes it non-finite; eval names the array."""
        raw = bytearray(Path(trained_run, "model.ckpt").read_bytes())
        (header_len,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8:8 + header_len])
        (entry,) = [e for e in header["tensors"] if e["name"] == "param/denoiser.in.w"]
        at = 8 + header_len + entry["offset"]
        (bits,) = struct.unpack("<Q", raw[at:at + 8])
        raw[at:at + 8] = struct.pack("<Q", bits | 0x7FF0_0000_0000_0000)
        path = tmp_path / "flipped.ckpt"
        path.write_bytes(bytes(raw))
        out = tmp_path / "ev"
        assert main(["eval", str(path), "--out-dir", str(out)]) == EXIT_CONFIG_ERROR
        assert "param/denoiser.in.w" in capsys.readouterr().err
        assert not out.exists()


class TestSampleCommand:
    def test_sample_csv_deterministic(self, trained_run, tmp_path):
        o1, o2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        for out in (o1, o2):
            args = ["sample", os.path.join(trained_run, "model.ckpt"),
                    "--n-samples", "8", "--steps", "16", "--seed", "5",
                    "--out-dir", out]
            assert main(args) == EXIT_OK
        with open(os.path.join(o1, "samples.csv"), "rb") as f1, \
                open(os.path.join(o2, "samples.csv"), "rb") as f2:
            assert f1.read() == f2.read()

    def test_steps_change_the_config_hash(self, trained_run, tmp_path):
        stamps = []
        for steps in ("8", "16"):
            out = tmp_path / f"steps{steps}"
            args = ["sample", os.path.join(trained_run, "model.ckpt"), "--n-samples", "4",
                    "--steps", steps, "--seed", "5", "--out-dir", str(out)]
            assert main(args) == EXIT_OK
            stamps.append(read_csv(str(out / "samples.csv"))[2])
        assert stamps[0] != stamps[1]

    def test_trajectory_dump(self, trained_run, tmp_path):
        out = str(tmp_path / "straj")
        args = ["sample", os.path.join(trained_run, "model.ckpt"),
                "--n-samples", "4", "--steps", "32", "--trajectory-every", "8",
                "--out-dir", out]
        assert main(args) == EXIT_OK
        header, rows, _ = read_csv(os.path.join(out, "trajectory.csv"))
        assert header == ["t", "mean_latent_norm"]
        assert rows

    def test_latents_exported_in_container_format(self, trained_run, tmp_path):
        from encdiff.checkpoint import load

        out = str(tmp_path / "slat")
        args = ["sample", os.path.join(trained_run, "model.ckpt"),
                "--n-samples", "6", "--steps", "8", "--save-latents",
                "--out-dir", out]
        assert main(args) == EXIT_OK
        dump = load(os.path.join(out, "latents.ckpt"))
        assert dump.arrays["latent_final"].shape == (6, 2)
        assert dump.arrays["x_out"].shape == (6, 2)
        assert dump.step == 60
        assert RunConfig.from_text(dump.config_text).sample_steps == 8
        # the latents dump shares the container format but holds no model
        assert main(["eval", os.path.join(out, "latents.ckpt")]) == EXIT_CONFIG_ERROR


class TestHeatmapCommand:
    def test_identity_heatmap_is_zero(self, tmp_path):
        out_train = str(tmp_path / "idrun")
        assert main(_train_args(out_train, encoder="identity", steps=3)) == EXIT_OK
        out = str(tmp_path / "hm")
        args = ["heatmap", os.path.join(out_train, "model.ckpt"),
                "--t-values", "0.5", "--out-dir", out]
        assert main(args) == EXIT_OK
        _, rows, _ = read_csv(os.path.join(out, "heatmap.csv"))
        assert all(float(r[2]) == 0.0 for r in rows)

    @pytest.mark.parametrize("encoder", ["trainable", "identity"])
    def test_dimension_mismatch_is_config_error(self, trained_run, tmp_path, encoder):
        if encoder == "trainable":
            checkpoint = os.path.join(trained_run, "model.ckpt")
        else:
            run = str(tmp_path / "idrun")
            assert main(_train_args(run, encoder=encoder, steps=3)) == EXIT_OK
            checkpoint = os.path.join(run, "model.ckpt")
        out = tmp_path / "hm"
        args = ["heatmap", checkpoint, "--dataset", "idx", "--idx-path", _tiny_idx(tmp_path),
                "--out-dir", str(out)]
        assert main(args) == EXIT_CONFIG_ERROR
        assert not out.exists()

    def test_window_below_zero_is_config_error(self, trained_run, tmp_path):
        args = ["heatmap", os.path.join(trained_run, "model.ckpt"),
                "--t-values", "0.05", "--out-dir", str(tmp_path / "hm2")]
        assert main(args) == EXIT_CONFIG_ERROR


class TestScheduleReport:
    def test_endpoint_rows_exact(self, tmp_path):
        out = str(tmp_path / "sr")
        assert main(["schedule-report", "--points", "11", "--out-dir", out]) == EXIT_OK
        header, rows, config_hash = read_csv(os.path.join(out, "schedule.csv"))
        assert header == ["t", "lambda", "alpha", "sigma", "snr"]
        assert float(rows[0][1]) == 13.3
        assert float(rows[-1][1]) == -5.0
        assert config_hash

    def test_custom_endpoints(self, tmp_path):
        out = str(tmp_path / "sr2")
        args = ["schedule-report", "--points", "3", "--lambda-max", "10",
                "--lambda-min", "-3", "--out-dir", out]
        assert main(args) == EXIT_OK
        _, rows, _ = read_csv(os.path.join(out, "schedule.csv"))
        assert float(rows[0][1]) == 10.0
        assert float(rows[-1][1]) == -3.0


class TestVerifyCommand:
    def test_quick_suite_passes(self, tmp_path):
        out = str(tmp_path / "verify")
        assert main(["verify", "--quick", "--out-dir", out]) == EXIT_OK
        header, rows, _ = read_csv(os.path.join(out, "verify.csv"))
        assert header[0] == "name"
        assert all(r[4] == "pass" for r in rows)

    @pytest.mark.parametrize("lambda_max, failing", [
        ("100", {"limit_convergence", "sde_richardson"}),
        ("400", {"limit_convergence", "weighted_penalty_growth", "optimal_penalty_decay",
                 "sampler_mean_0", "sampler_mean_1", "sampler_cov_00", "sampler_cov_01",
                 "sampler_cov_11", "sampler_model_calls", "sde_richardson", "fd_gradient"}),
    ])
    def test_extreme_lambda_max_fails_with_every_row(self, tmp_path, capsys, lambda_max,
                                                     failing):
        """Oracles with nothing to measure at these endpoints are FAIL rows:
        exit 1, with every oracle's row in verify.csv and no traceback."""
        out = str(tmp_path / "verify")
        assert main(["verify", "--quick", "--lambda-max", lambda_max, "--out-dir", out]) == 1
        assert "Traceback" not in capsys.readouterr().err
        _, rows, _ = read_csv(os.path.join(out, "verify.csv"))
        assert [r[0] for r in rows] == [
            "mc_kl", "mc_kl", "optimal_variance_grid", "limit_convergence",
            "weighted_penalty_growth", "optimal_penalty_decay", "sampler_mean_0",
            "sampler_mean_1", "sampler_cov_00", "sampler_cov_01", "sampler_cov_11",
            "sampler_model_calls", "sde_richardson", "fd_gradient", "fd_gradient"]
        assert {r[0] for r in rows if r[4] == "FAIL"} == failing

    def test_extreme_lambda_min_fails_with_every_row(self, tmp_path, capsys):
        """Below λ_min ≈ −1419.6 optimal_penalty_decay's predictor overflows: that
        oracle is an inconclusive FAIL row, and every other oracle still runs.
        The sampler's covariance rows pass against the readout's shrunk 0.891."""
        out = str(tmp_path / "verify")
        assert main(["verify", "--quick", "--lambda-min=-1420", "--out-dir", out]) == 1
        assert "Traceback" not in capsys.readouterr().err
        _, rows, _ = read_csv(os.path.join(out, "verify.csv"))
        assert len(rows) == 15
        assert {r[0] for r in rows if r[4] == "FAIL"} == {
            "limit_convergence", "optimal_penalty_decay", "sde_richardson"}
        (decay,) = [r for r in rows if r[0] == "optimal_penalty_decay"]
        assert decay[5] == "inconclusive: the loss sum overflowed (math range error)"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_embedding_fails_with_every_row(self, tmp_path, capsys):
        """At λ_min = −1e308 the trainable encoder's λ embedding overflows: its
        fd_gradient row is an inconclusive FAIL that names the layer, and every
        other oracle still runs."""
        out = str(tmp_path / "verify")
        assert main(["verify", "--quick", "--lambda-min=-1e308", "--out-dir", out]) == 1
        assert "Traceback" not in capsys.readouterr().err
        _, rows, _ = read_csv(os.path.join(out, "verify.csv"))
        assert len(rows) == 15
        trainable, nt = [r for r in rows if r[0] == "fd_gradient"]
        assert trainable[4] == "FAIL"
        assert trainable[5] == ("inconclusive: the loss is not finite (non-finite values "
                                "produced by layer 'encoder.in') encoder=trainable")
        assert nt[4] == "pass"
        moments = [r for r in rows if r[0].startswith(("sampler_mean", "sampler_cov"))]
        assert len(moments) == 5 and all(r[4] == "FAIL" for r in moments)
        assert all(r[5].startswith("inconclusive: alpha=0 at the readout point")
                   for r in moments)


class TestPixelWorkflow:
    """IDX train -> eval -> sample --pixels -> heatmap, end to end."""

    @pytest.fixture(scope="class")
    def idx_run(self, tmp_path_factory):
        from encdiff.data import Dataset, PIXELS, write_idx

        root = tmp_path_factory.mktemp("pixels")
        rng_local = np.random.default_rng(2)
        side = 6
        yy, xx = np.mgrid[0:side, 0:side]
        items = []
        for _ in range(64):
            cy, cx = rng_local.uniform(1, 5, size=2)
            blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 3.0)
            items.append(np.clip(blob * 255, 0, 255).astype(np.uint8).ravel())
        ds = Dataset(items=np.stack(items), dims=(side, side), name="blobs", kind=PIXELS)
        idx_path = str(root / "blobs.idx")
        write_idx(idx_path, ds)
        out = str(root / "run")
        args = ["train", "--dataset", "idx", "--idx-path", idx_path,
                "--encoder", "trainable", "--steps", "20", "--batch-size", "8",
                "--denoiser-width", "16", "--encoder-width", "8", "--seed", "6",
                "--out-dir", out]
        assert main(args) == EXIT_OK
        return idx_path, out

    def test_train_tracks_reconstruction(self, idx_run):
        _, out = idx_run
        header, rows, _ = read_csv(os.path.join(out, "loss_curve.csv"))
        recon = [float(r[3]) for r in rows]
        assert all(v > 0.0 for v in recon)

    def test_eval_on_pixels(self, idx_run, tmp_path):
        idx_path, out = idx_run
        eval_dir = str(tmp_path / "ev")
        args = ["eval", os.path.join(out, "model.ckpt"), "--dataset", "idx",
                "--idx-path", idx_path, "--n-mc", "4", "--n-items", "2",
                "--out-dir", eval_dir]
        assert main(args) == EXIT_OK
        header, rows, _ = read_csv(os.path.join(eval_dir, "eval.csv"))
        values = dict(zip(header, rows[0]))
        assert float(values["reconstruction"]) > 0.0

    def test_sample_pixel_grid(self, idx_run, tmp_path):
        _, out = idx_run
        sample_dir = str(tmp_path / "sp")
        args = ["sample", os.path.join(out, "model.ckpt"), "--n-samples", "4",
                "--steps", "8", "--pixels", "--out-dir", sample_dir]
        assert main(args) == EXIT_OK
        img, config_hash = read_pgm(os.path.join(sample_dir, "samples.pgm"))
        assert img.shape == (12, 12)  # 2x2 grid of 6x6 tiles
        assert config_hash

    def test_heatmap_writes_pgm_and_csv(self, idx_run, tmp_path):
        idx_path, out = idx_run
        hm_dir = str(tmp_path / "hm")
        args = ["heatmap", os.path.join(out, "model.ckpt"), "--dataset", "idx",
                "--idx-path", idx_path, "--t-values", "0.5", "0.9",
                "--out-dir", hm_dir]
        assert main(args) == EXIT_OK
        assert os.path.exists(os.path.join(hm_dir, "heatmap_t0.50.pgm"))
        assert os.path.exists(os.path.join(hm_dir, "heatmap_t0.90.pgm"))
        _, rows, _ = read_csv(os.path.join(hm_dir, "heatmap.csv"))
        assert len(rows) == 2 * 36

    @pytest.mark.parametrize("t_values, clashing", [
        (["0.401", "0.404"], "0.401 0.404"),
        (["0.5", "0.5"], "0.5 0.5"),
        (["0.9", "0.401", "0.6", "0.404"], "0.401 0.404"),
    ])
    def test_t_values_sharing_a_pgm_name_are_config_error(self, idx_run, tmp_path, capsys,
                                                          t_values, clashing):
        """heatmap_t0.40.pgm would be written twice, keeping only the second map."""
        idx_path, out = idx_run
        hm_dir = tmp_path / "hm"
        args = ["heatmap", os.path.join(out, "model.ckpt"), "--dataset", "idx",
                "--idx-path", idx_path, "--t-values", *t_values, "--out-dir", str(hm_dir)]
        assert main(args) == EXIT_CONFIG_ERROR
        assert f"--t-values {clashing} would share PGM file names" in capsys.readouterr().err
        assert not hm_dir.exists()


class TestPgm:
    def test_round_trip_with_hash(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(6, 9)).astype(np.uint8)
        path = str(tmp_path / "img.pgm")
        write_pgm(path, img, config_hash="deadbeef")
        back, config_hash = read_pgm(path)
        np.testing.assert_array_equal(back, img)
        assert config_hash == "deadbeef"

    def test_shape_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(str(tmp_path / "bad.pgm"), np.zeros((2, 2)), "deadbeef")  # not uint8


def test_train_function_initial_total_recorded(tmp_path):
    config = RunConfig(dataset="gaussian2d", n_points=128, encoder="identity",
                       denoiser_width=8, steps=5, batch_size=8, log_every=2,
                       out_dir=str(tmp_path / "t"), checkpoint_every=100)
    state = train(config)
    # column 4 of a log row is the total loss in nats
    assert np.isfinite(state.log_rows[0][4])
    assert np.isfinite(state.log_rows[-1][4])
    assert state.log_rows[0][0] == 1


@pytest.mark.parametrize("encoder, per_step", [
    ("trainable", 4), ("nt", 1), ("identity", 1)])
def test_tensors_per_training_step(tmp_path, encoder, per_step):
    """The v-loss is one node over the parameters, and no network call makes
    a Tensor: a step makes the v-loss node alone.  The trainable encoder adds
    the latent term's encode_t node over its inner net's parameters, the
    latent node and the sum of the two losses.  Tensors are counted with the
    node-id counter, as the benchmark's tensor probe counts them; a run of 3
    steps makes one step's Tensors more than a run of 2, since both log and
    save at their first and last steps."""
    from encdiff.autodiff import Tensor

    def tensors_made(steps: int) -> int:
        start = Tensor(0.0).node_id
        train(RunConfig(dataset="gaussian2d", n_points=64, encoder=encoder, steps=steps,
                        batch_size=16, denoiser_width=8, encoder_width=8, log_every=1000,
                        out_dir=str(tmp_path / f"steps{steps}")))
        return Tensor(0.0).node_id - start

    assert tensors_made(3) - tensors_made(2) == per_step


def test_two_inner_passes_per_trainable_training_step(tmp_path, monkeypatch):
    """The v-loss's stacked pass over the λ, λ + h and λ − h rows, and the
    latent term's pass over the t = 1 rows; counted as in
    test_tensors_per_training_step."""
    from encdiff.nets import EncoderInnerNet

    passes = []
    forward = EncoderInnerNet.forward
    monkeypatch.setattr(EncoderInnerNet, "forward",
                        lambda net, x, lam, *buffers: passes.append(len(x))
                        or forward(net, x, lam, *buffers))

    def passes_made(steps: int) -> list[int]:
        passes.clear()
        train(RunConfig(dataset="gaussian2d", n_points=64, encoder="trainable", steps=steps,
                        batch_size=16, denoiser_width=8, encoder_width=8, log_every=1000,
                        out_dir=str(tmp_path / f"steps{steps}")))
        return list(passes)

    two, three = passes_made(2), passes_made(3)
    assert len(three) - len(two) == 2
    assert sorted(three) == sorted(two + [3 * 16, 16])


@pytest.mark.parametrize("encoder", ["identity", "nt", "trainable"])
def test_logged_reconstruction_matches_the_per_row_loop(encoder, rng, monkeypatch):
    """The logged rows are encoded in one call and their noise is one (n, d)
    draw: the same stream, and the same values, as encoding and drawing row by
    row.  identity and nt encode elementwise, so they agree bit for bit."""
    from encdiff.data import PIXELS, Dataset, real_items
    from encdiff.objective import latent_loss, reconstruction_loss
    from encdiff.schedule import LogLinearSchedule
    from encdiff.train import TrainState, _loss_metrics, build_model

    config = RunConfig(encoder=encoder, denoiser_width=8, encoder_width=8)
    dataset = Dataset(items=rng.integers(0, 256, size=(12, 9), dtype=np.uint8), dims=(3, 3),
                      name="noise", kind=PIXELS)
    model, enc, store = build_model(config, d=9)
    for param in store.parameters():
        param.data = 0.3 * rng.standard_normal(param.data.shape)
    schedule = LogLinearSchedule(config.lambda_max, config.lambda_min)
    state = TrainState(config=config, schedule=schedule, dataset=dataset, model=model,
                       encoder=enc, store=store)
    x_batch = real_items(dataset)[:10]
    encoded = []  # the rows of each encode call
    encode = enc.encode
    monkeypatch.setattr(enc, "encode", lambda x, point: encoded.append(len(x)) or encode(x, point))
    latent_loss(x_batch, enc, schedule)
    latent_calls = len(encoded)

    metrics_rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    encoded.clear()
    recon = _loss_metrics(x_batch, state, 0.0, metrics_rng).reconstruction
    assert len(encoded) == latent_calls + 1
    p0 = schedule.at(0.0)
    values = []
    for x in x_batch[:8]:
        z0 = p0.alpha * enc.encode(x, p0) + p0.sigma * ref_rng.standard_normal(x.size)
        pixels = np.rint((x + 1.0) * 255.0 / 2.0).astype(np.int64)
        values.append(reconstruction_loss(pixels, z0, schedule))
    if encoder == "trainable":
        assert recon == pytest.approx(float(np.mean(values)), rel=1e-12)
    else:
        assert recon == float(np.mean(values))
    assert metrics_rng.standard_normal() == ref_rng.standard_normal()
