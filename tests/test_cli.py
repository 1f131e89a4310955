"""CLI and training-loop tests, run in-process through main()."""

import argparse
import os
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from encdiff.cli import EXIT_CONFIG_ERROR, EXIT_NUMERICS, EXIT_OK, build_parser, main
from encdiff.config import RunConfig
from encdiff.io_utils import read_csv, read_pgm, write_pgm
from encdiff.train import restore, train


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


_FULL_HEADER = (b'{"format_version": 1, "lambda_max": 13.3, "lambda_min": -5.0, '
                b'"encoder_kind": "nt", "step": 0, '
                b'"tensors": [{"name": "w", "shape": [2], "offset": 0}]}')


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
    def test_numerical_blowup_exits_3_and_keeps_checkpoint(self, tmp_path):
        out = str(tmp_path / "blowup")
        args = _train_args(out, steps=50, extra=["--lr", "1e150"])
        assert main(args) == EXIT_NUMERICS
        # parameters in the retained checkpoint are finite (pre-abort state)
        model, _encoder, store, _config, _schedule = restore(
            os.path.join(out, "model.ckpt"))
        for tensor in store.tensors():
            assert np.all(np.isfinite(tensor.data))

    def test_config_written_alongside_checkpoint(self, trained_run):
        path = os.path.join(trained_run, "config.ini")
        assert os.path.exists(path)
        config = RunConfig.from_file(path)
        assert config.encoder == "trainable"


class TestConfigFile:
    def test_round_trip(self):
        config = RunConfig(encoder="nt", steps=123, lr=0.01)
        text = config.to_text()
        back = RunConfig.from_text(text)
        assert back == config

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
        pytest.param(_raw_checkpoint(_FULL_HEADER) + bytes(17), id="trailing-bytes"),
        pytest.param(_raw_checkpoint(b"{}", header_len=1000), id="header-past-end"),
    ])
    def test_malformed_checkpoint_rejected(self, tmp_path, raw):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(raw)
        assert main(["eval", str(path)]) == EXIT_CONFIG_ERROR

    def test_hash_stable(self):
        assert RunConfig().hash() == RunConfig().hash()
        assert RunConfig().hash() != RunConfig(steps=7).hash()


@pytest.mark.parametrize("command, flags", [
    pytest.param("eval", ["--n-mc", "0"], id="eval-n-mc-0"),
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
])
def test_bad_value_is_config_error(trained_run, tmp_path, command, flags):
    out = tmp_path / "out"
    checkpoint = [] if command == "schedule-report" else [os.path.join(trained_run, "model.ckpt")]
    flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
    assert main([command, *checkpoint, *flags, "--out-dir", str(out)]) == EXIT_CONFIG_ERROR
    assert not out.exists()


def _subcommand_flags() -> dict[str, set[str]]:
    """Option strings each subcommand's parser accepts, without -h/--help."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {flag for action in p._actions for flag in action.option_strings}
            - {"-h", "--help"} for name, p in sub.choices.items()}


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
        idx_path = str(tmp_path / "tiny.idx")
        import struct

        with open(idx_path, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 2, 3, 3))
            f.write(bytes(range(18)))
        args = ["eval", os.path.join(trained_run, "model.ckpt"),
                "--dataset", "idx", "--idx-path", idx_path,
                "--out-dir", str(tmp_path / "evalx")]
        assert main(args) == EXIT_CONFIG_ERROR


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
        assert dump.meta["n_chains"] == 6
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
            write_pgm(str(tmp_path / "bad.pgm"), np.zeros((2, 2)))  # not uint8


def test_train_function_initial_total_recorded(tmp_path):
    config = RunConfig(dataset="gaussian2d", n_points=128, encoder="identity",
                       denoiser_width=8, steps=5, batch_size=8, log_every=2,
                       out_dir=str(tmp_path / "t"), checkpoint_every=100)
    state = train(config)
    assert np.isfinite(state.initial_total)
    assert np.isfinite(state.final_total)
    assert state.log_rows[0][0] == 1
