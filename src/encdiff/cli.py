"""Command-line entry point.

Subcommands: train, eval, sample, heatmap, schedule-report, verify.  Each
takes only the flags it reads; any other flag exits 2.  A flag whose dest is a
RunConfig field overrides the base config: the INI file given by --config (or
the defaults) for train, schedule-report and verify, the checkpoint's own
config for eval, sample and heatmap.  Exit codes: 0 success, 1 verification
failure, 2 config error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .config import RunConfig
from .data import PIXELS, real_items
from .encoder import change_heatmap
from .errors import ConfigError, NumericsError
from .io_utils import tile_grid, write_csv, write_pgm
from .objective import elbo_bpd, t_profile
from .sampler import SamplerConfig, ancestral_sample
from .schedule import LogLinearSchedule
from .train import load_dataset, restore, train
from .verify import run_all

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICS = 3


def _base_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig.from_file(args.config) if args.config else RunConfig()


def _configure(args: argparse.Namespace, config: RunConfig) -> RunConfig:
    """Apply every flag whose dest is a RunConfig field to config, then validate it."""
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    return config.validate()


def cmd_train(args: argparse.Namespace) -> int:
    config = _configure(args, _base_config(args))

    def progress(step: int, metrics) -> None:
        print(f"step {step:>7d}  diffusion {metrics.diffusion:10.4f}  "
              f"latent {metrics.latent:.6f}  recon {metrics.reconstruction:.4f}  "
              f"total {metrics.total_nats:10.4f}  bpd {metrics.bpd:8.4f}")

    state = train(config, progress=progress)
    print(f"checkpoint: {state.checkpoint_path}")
    print(f"loss curve: {os.path.join(config.out_dir, 'loss_curve.csv')}")
    return EXIT_OK


def _require_at_least(minimum: int, **counts: int) -> None:
    for flag, value in counts.items():
        if value < minimum:
            raise ConfigError(f"--{flag.replace('_', '-')} must be >= {minimum}, got {value}")


def cmd_eval(args: argparse.Namespace) -> int:
    _require_at_least(1, n_items=args.n_items, profile_points=args.profile_points)
    model, encoder, _store, config, schedule = restore(args.checkpoint)
    dataset = load_dataset(_configure(args, config))
    items = real_items(dataset)
    if items.shape[1] != model.d:
        raise ConfigError(
            f"dataset dimension {items.shape[1]} does not match checkpoint dimension {model.d}"
        )
    rng = np.random.default_rng(config.seed + 777)
    n_items = min(args.n_items, len(dataset))
    parts = {"diffusion": [], "latent": [], "reconstruction": [], "stderr": []}
    pixels = dataset.kind == PIXELS
    for i in range(n_items):
        bd = elbo_bpd(dataset.items[i] if pixels else items[i], model, encoder, schedule,
                      config.n_mc, rng, pixel_data=pixels)
        parts["diffusion"].append(bd.diffusion)
        parts["latent"].append(bd.latent)
        parts["reconstruction"].append(bd.reconstruction)
        parts["stderr"].append(bd.diffusion_stderr)
    d = items.shape[1]
    ln2d = d * np.log(2.0)
    diffusion = float(np.mean(parts["diffusion"])) / ln2d
    latent = float(np.mean(parts["latent"])) / ln2d
    recon = float(np.mean(parts["reconstruction"])) / ln2d
    total = diffusion + latent + recon
    # per-item MC errors are independent: they combine in quadrature
    stderr = float(np.sqrt(np.sum(np.square(parts["stderr"])))) / (n_items * ln2d)
    print(f"{'component':>15s} {'bpd':>12s}")
    for name, value in (("diffusion", diffusion), ("latent", latent),
                        ("reconstruction", recon), ("total", total)):
        print(f"{name:>15s} {value:12.6f}")
    print(f"(diffusion MC stderr {stderr:.2e} bpd over {n_items} items, "
          f"n_mc={config.n_mc})")
    os.makedirs(config.out_dir, exist_ok=True)
    out = os.path.join(config.out_dir, "eval.csv")
    write_csv(out, ["encoder", "total", "latent", "diffusion", "reconstruction",
                    "diffusion_stderr"],
              [(config.encoder, total, latent, diffusion, recon, stderr)],
              config_hash=config.hash())
    print(f"wrote {out}")
    if args.profile_out:
        t_grid = np.linspace(0.02, 0.98, args.profile_points)
        rows = t_profile(items[0], model, encoder, schedule, t_grid,
                         n_eps=max(4, config.n_mc // 8), rng=rng)
        write_csv(args.profile_out, ["t", "lambda", "integrand_mean", "integrand_stderr"],
                  rows, config_hash=config.hash())
        print(f"wrote {args.profile_out}")
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    _require_at_least(1, n_samples=args.n_samples)
    _require_at_least(0, trajectory_every=args.trajectory_every)
    model, encoder, _store, config, schedule = restore(args.checkpoint)
    _configure(args, config)
    # the checkpoint does not record an image shape, so a pixel grid needs square images
    side = math.isqrt(model.d)
    if args.pixels and side * side != model.d:
        raise ConfigError(f"--pixels needs square images, but the model's dimension "
                          f"{model.d} is not a perfect square")
    mode = config.counterterm
    counterterm = encoder.counterterm if mode == "auto" else (mode == "on")
    sampler_config = SamplerConfig(steps=config.sample_steps, counterterm=counterterm,
                                   seed=config.seed,
                                   stochastic_decode=args.stochastic_decode)
    result = ancestral_sample(model, schedule, sampler_config, n_chains=args.n_samples,
                              d=model.d, pixel_decode=args.pixels,
                              trajectory_every=args.trajectory_every)
    os.makedirs(config.out_dir, exist_ok=True)
    if args.pixels:
        imgs = result.pixels.reshape(-1, side, side)
        grid = tile_grid(imgs, n_cols=max(1, int(np.ceil(np.sqrt(len(imgs))))))
        out = os.path.join(config.out_dir, "samples.pgm")
        write_pgm(out, grid, config_hash=config.hash())
    else:
        out = os.path.join(config.out_dir, "samples.csv")
        write_csv(out, [f"x{j}" for j in range(model.d)],
                  [tuple(row) for row in result.x_out], config_hash=config.hash())
    print(f"wrote {out}")
    if args.save_latents:
        from .checkpoint import Checkpoint, save as save_checkpoint

        latents_path = os.path.join(config.out_dir, "latents.ckpt")
        save_checkpoint(latents_path, Checkpoint(
            lambda_max=config.lambda_max, lambda_min=config.lambda_min,
            encoder_kind=config.encoder, step=config.sample_steps,
            arrays={"latent_final": result.latent_final, "x_out": result.x_out},
            config_hash=config.hash(),
            meta={"n_chains": args.n_samples, "seed": config.seed},
        ))
        print(f"wrote {latents_path}")
    if args.trajectory_every:
        traj_out = os.path.join(config.out_dir, "trajectory.csv")
        write_csv(traj_out, ["t", "mean_latent_norm"], result.trajectory,
                  config_hash=config.hash())
        print(f"wrote {traj_out}")
    return EXIT_OK


def cmd_heatmap(args: argparse.Namespace) -> int:
    model, encoder, _store, config, schedule = restore(args.checkpoint)
    dataset = load_dataset(_configure(args, config))
    if not 0 <= args.item < len(dataset):
        raise ConfigError(f"--item must be in [0, {len(dataset)}), got {args.item}")
    if not args.window > 0:
        raise ConfigError(f"--window must be positive, got {args.window}")
    for t in args.t_values:
        if not args.window <= t <= 1.0:
            raise ConfigError(f"heatmap t={t} must lie in [window, 1] = [{args.window}, 1]")
    x = real_items(dataset)[args.item]
    os.makedirs(config.out_dir, exist_ok=True)
    rows = []
    for t in args.t_values:
        rate = change_heatmap(encoder, x, schedule, t - args.window, t)
        rows.extend((t, j, rate[j]) for j in range(rate.size))
        if dataset.kind == PIXELS:
            h, w = dataset.dims
            lo, hi = rate.min(), rate.max()
            scale = max(abs(lo), abs(hi)) or 1.0
            img = np.clip((rate.reshape(h, w) / scale + 1.0) * 127.5, 0, 255).astype(np.uint8)
            out = os.path.join(config.out_dir, f"heatmap_t{t:.2f}.pgm")
            write_pgm(out, img, config_hash=config.hash())
            print(f"wrote {out}")
    out_csv = os.path.join(config.out_dir, "heatmap.csv")
    write_csv(out_csv, ["t", "index", "rate"], rows, config_hash=config.hash())
    print(f"wrote {out_csv}")
    return EXIT_OK


def cmd_schedule_report(args: argparse.Namespace) -> int:
    _require_at_least(1, points=args.points)
    config = _configure(args, _base_config(args))
    schedule = LogLinearSchedule(config.lambda_max, config.lambda_min)
    ts = np.linspace(0.0, 1.0, args.points)
    rows = []
    for t in ts:
        p = schedule.at(float(t))
        rows.append((p.t, p.lam, p.alpha, p.sigma, p.snr))
    os.makedirs(config.out_dir, exist_ok=True)
    out = os.path.join(config.out_dir, "schedule.csv")
    write_csv(out, ["t", "lambda", "alpha", "sigma", "snr"], rows,
              config_hash=config.hash())
    print(f"wrote {out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    config = _configure(args, _base_config(args))
    schedule = LogLinearSchedule(config.lambda_max, config.lambda_min)
    reports = run_all(schedule=schedule, seed=config.seed, quick=args.quick)
    width = max(len(r.name) for r in reports)
    n_failed = 0
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}s}  {status}  measured={r.measured:.6g} "
              f"expected={r.expected:.6g} tol={r.tolerance:.3g}  {r.details}")
        n_failed += 0 if r.passed else 1
    os.makedirs(config.out_dir, exist_ok=True)
    out = os.path.join(config.out_dir, "verify.csv")
    write_csv(out, ["name", "measured", "expected", "tolerance", "status", "details"],
              [r.row() for r in reports], config_hash=config.hash())
    print(f"wrote {out}")
    print(f"{len(reports) - n_failed}/{len(reports)} oracle checks passed")
    return EXIT_OK if n_failed == 0 else EXIT_VERIFY_FAILED


# flags that more than one subcommand reads; each subcommand adds those it reads
_SHARED_FLAGS = {
    "--config": dict(help="INI config file; flags override its values"),
    "--seed": dict(type=int, help="base RNG seed"),
    "--out-dir": dict(help="output directory"),
    "--lambda-max": dict(type=float, help="log-SNR at t=0"),
    "--lambda-min": dict(type=float, help="log-SNR at t=1"),
    "--counterterm": dict(choices=["on", "off", "auto"],
                          help="generative-mean counterterm at sampling time"),
    "--n-mc": dict(type=int, help="Monte-Carlo draws per datapoint"),
    "--dataset": dict(choices=["gaussian2d", "idx"]),
    "--idx-path": dict(),
}


def _add_shared(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="encdiff",
        description="Variational diffusion with a time-dependent data encoder",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model")
    _add_shared(p, "--config", "--seed", "--out-dir", "--lambda-max", "--lambda-min",
                "--counterterm", "--n-mc", "--dataset", "--idx-path")
    p.add_argument("--steps", type=int, help="training step count")
    p.add_argument("--encoder", choices=["identity", "nt", "trainable"], help="encoder kind")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--denoiser-width", type=int)
    p.add_argument("--encoder-width", type=int)
    p.add_argument("--n-points", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint: loss decomposition in bpd")
    p.add_argument("checkpoint")
    _add_shared(p, "--out-dir", "--n-mc", "--dataset", "--idx-path")
    p.add_argument("--n-items", type=int, default=16)
    p.add_argument("--profile-out", help="also write the per-timestep integrand CSV here")
    p.add_argument("--profile-points", type=int, default=25)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="draw samples from a checkpoint")
    p.add_argument("checkpoint")
    _add_shared(p, "--out-dir", "--seed", "--counterterm")
    p.add_argument("--steps", dest="sample_steps", type=int, help="sampling step count")
    p.add_argument("--n-samples", type=int, default=64)
    p.add_argument("--pixels", action="store_true", help="decode to a pixel grid (PGM)")
    p.add_argument("--stochastic-decode", action="store_true")
    p.add_argument("--save-latents", action="store_true",
                   help="also dump raw latents in the checkpoint container format")
    p.add_argument("--trajectory-every", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("heatmap", help="encoder change-rate maps (x_t − x_s)/(t − s)")
    p.add_argument("checkpoint")
    _add_shared(p, "--out-dir", "--dataset", "--idx-path")
    p.add_argument("--item", type=int, default=0)
    p.add_argument("--t-values", type=float, nargs="+", default=[0.4, 0.6, 0.8, 1.0])
    p.add_argument("--window", type=float, default=0.1)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("schedule-report", help="CSV of (t, λ, α, σ, SNR)")
    _add_shared(p, "--config", "--out-dir", "--lambda-max", "--lambda-min")
    p.add_argument("--points", type=int, default=101)
    p.set_defaults(func=cmd_schedule_report)

    p = sub.add_parser("verify", help="run the oracle suite; nonzero exit on failure")
    _add_shared(p, "--config", "--seed", "--out-dir", "--lambda-max", "--lambda-min")
    p.add_argument("--quick", action="store_true", help="reduced budgets")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NumericsError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
