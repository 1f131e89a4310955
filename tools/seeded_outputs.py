"""Run a fixed set of seeded encdiff commands and print the sha256 of every file they write.

    python tools/seeded_outputs.py OUT_DIR

The commands, each writing into its own folder of OUT_DIR:

- for each encoder (identity, nt, trainable): a 300-step `train` on 2-D
  Gaussian data (seed 3, denoiser width 64, encoder width 32, 512 points),
  then `sample --save-latents --trajectory-every 4`, `eval --profile-out` and
  `heatmap` on its checkpoint;
- a 40-step trainable `train` on an IDX file of 128 8×8 blob images, then
  `sample --pixels` with and without `--stochastic-decode`, `eval
  --profile-out` and `heatmap`;
- `schedule-report`;
- `verify --quick` at the default endpoints, which must pass, at λ_max 100
  and 400, and at λ_min −1420 and −1e308; at these extreme endpoints exit 1
  is accepted: some oracles cannot measure there.

The script works inside OUT_DIR with relative paths, so the config text that
checkpoints record does not depend on where OUT_DIR is.  It imports encdiff
from the `src` folder beside its own folder, so a copy placed in another
checkout runs that checkout's code.  It prints one `sha256  path` line per
file, path relative to OUT_DIR, sorted by path; two trees gave the same
outputs when these lines are equal.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from encdiff.cli import EXIT_OK, EXIT_VERIFY_FAILED, main  # noqa: E402
from encdiff.data import PIXELS, Dataset, write_idx  # noqa: E402

GAUSS_TRAIN = ["--steps", "300", "--seed", "3", "--denoiser-width", "64",
               "--encoder-width", "32", "--n-points", "512"]
IDX_TRAIN = ["--dataset", "idx", "--idx-path", "blobs.idx", "--encoder", "trainable",
             "--steps", "40", "--seed", "3", "--denoiser-width", "64", "--encoder-width", "32"]


def blob_images(n: int, side: int = 8, seed: int = 2) -> np.ndarray:
    """n side×side uint8 images, each one Gaussian blob, as rows of side² pixels."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:side, 0:side]
    centres = rng.uniform(1.5, side - 2.5, size=(n, 2))
    d2 = (yy - centres[:, 0, None, None]) ** 2 + (xx - centres[:, 1, None, None]) ** 2
    return np.clip(np.exp(-d2 / 3.0) * 255, 0, 255).astype(np.uint8).reshape(n, side * side)


def commands() -> list[list[str]]:
    """Each command's argv, in the order they run."""
    cmds = []
    for encoder in ("identity", "nt", "trainable"):
        ckpt = f"{encoder}/model.ckpt"
        cmds += [["train", "--encoder", encoder, *GAUSS_TRAIN, "--out-dir", encoder],
                 ["sample", ckpt, "--save-latents", "--trajectory-every", "4"],
                 ["eval", ckpt, "--profile-out", f"{encoder}/profile.csv"],
                 ["heatmap", ckpt]]
    cmds += [["train", *IDX_TRAIN, "--out-dir", "idx"],
             ["sample", "idx/model.ckpt", "--pixels"],
             ["sample", "idx/model.ckpt", "--pixels", "--stochastic-decode",
              "--out-dir", "idx-stochastic"],
             ["eval", "idx/model.ckpt", "--profile-out", "idx/profile.csv"],
             ["heatmap", "idx/model.ckpt"],
             ["schedule-report", "--out-dir", "schedule"]]
    cmds.append(["verify", "--quick", "--out-dir", "verify-default"])
    for lambda_max in ("100", "400"):
        cmds.append(["verify", "--quick", "--lambda-max", lambda_max,
                     "--out-dir", f"verify-lmax{lambda_max}"])
    for lambda_min in ("-1420", "-1e308"):
        cmds.append(["verify", "--quick", f"--lambda-min={lambda_min}",
                     "--out-dir", f"verify-lmin{lambda_min}"])
    return cmds


def run(argv: list[str]) -> None:
    """Run one command, its printout kept back unless it fails."""
    extreme = any(arg.startswith(("--lambda-max", "--lambda-min")) for arg in argv)
    accepted = (EXIT_OK, EXIT_VERIFY_FAILED) if extreme else (EXIT_OK,)
    printout = io.StringIO()
    with contextlib.redirect_stdout(printout), contextlib.redirect_stderr(printout):
        code = main(argv)
    if code not in accepted:
        sys.stderr.write(printout.getvalue())
        raise SystemExit(f"encdiff {' '.join(argv)} exited {code}")


def sha256_lines(root: Path) -> list[str]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}"
            for p in files]


def cli(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="sha256 of every file a fixed set of "
                                                 "seeded encdiff commands writes")
    parser.add_argument("out_dir", type=Path, help="empty or missing folder to run in")
    root = parser.parse_args(argv).out_dir
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        parser.error(f"{root} is not empty")
    os.chdir(root)
    write_idx("blobs.idx", Dataset(items=blob_images(128), dims=(8, 8), name="blobs",
                                   kind=PIXELS))
    for cmd in commands():
        run(cmd)
    print("\n".join(sha256_lines(Path("."))))
    return 0


if __name__ == "__main__":
    sys.exit(cli(sys.argv[1:]))
