"""encdiff benchmark: a user's train -> eval -> sample -> verify session, timed.

    python3 perfbench/run.py --workload gauss2d-trainable --seed 1 --seconds 60 --trace 0

The package is imported from src/ beside this directory, never from an
installed copy: without src/encdiff the run exits with code 2 and prints no
result.  BLAS is capped at one thread before numpy loads, all load comes
from this one process, and the process is pinned to one CPU.

A run first times SETUP_REPS set-ups (a fresh import of encdiff, config
validation, dataset load and model build) and reports their median as
setup_s.  It then repeats rounds until the next round would end after
--seconds.  Each round is one user session on inputs made from a seed
derived from --seed and the round number:

    train     train(config): a fresh run that writes its loss curve and checkpoint
    restore   restore(checkpoint), compared bit for bit with the trained state
    eval      blocks of elbo_bpd on EVAL_ITEMS items x EVAL_DRAWS (t, eps) draws
    sample    ancestral_sample runs, SAMPLE_CHAINS chains x SAMPLE_STEPS steps each
    verify    verify.run_all() at its defaults, exactly what `encdiff verify` runs

Eval blocks, sample runs and oracle suites repeat within a round until
EVAL_MIN_S, SAMPLE_MIN_S and VERIFY_MIN_S have passed.  The time left after
the last round that fits is filled with more oracle suites.  Rates and times
are medians over every train call, eval block, sample run and oracle suite of
the run; eval_stderr2_s pools every eval item of the run.  Each time is first
scaled to a reference machine speed (see SpeedReference).

Every round checks its outputs: the loss falls, eval values are finite,
samples land near the data, the checkpoint round-trips bit-exactly, every
oracle passes, and every deterministic count (Tensors made, model calls,
checkpoint payload bytes, ...) equals its first value in the run.  Each
check, train step, eval item, sample run and oracle is one attempted
operation.

With --trace 1 the same run is made with spans recorded around every public
function of each encdiff module (see tracer.py) and the per-layer metrics
are printed instead of the end-to-end ones.  Before anything else, the traced
run times one sample run in its fresh process, where the allocator is still
cold (see time_cold_sample).  Results, stamped with the code and platform
versions, go to perfbench/out/.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# One CPU for the whole run: on a 2-vCPU VM one vCPU can run 15% slower or
# faster from moment to moment while the other holds within 2%, and an
# unpinned run migrates between them.
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path[:0] = [str(SRC), str(HERE)]

SETUP_REPS = 9
EVAL_ITEMS = 16
EVAL_DRAWS = 128
SAMPLE_CHAINS = 1024
SAMPLE_STEPS = 256
PIXEL_IMAGES = 4096
# Each round repeats its eval blocks, sample runs and oracle suites until
# this much time is spent on them, so that every phase gets several samples
# per run, not one burst-sized measurement.
EVAL_MIN_S = 4.0
SAMPLE_MIN_S = 2.0
VERIFY_MIN_S = 2.0

# Median SpeedReference.sample() time on the machine the baseline was
# recorded on (2-vCPU VM, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31).
REFERENCE_S = 0.025

# Why each workload is here is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    # acceptance criterion 8's config, trained for 3000 steps instead of 20k
    "gauss2d-trainable": {
        "config": dict(dataset="gaussian2d", n_points=4096, mean_x=0.5, mean_y=-0.3,
                       cov_scale=1e-4, encoder="trainable", denoiser_width=64,
                       encoder_width=32, batch_size=64, lr=1e-3, steps=3000,
                       log_every=3000, checkpoint_every=1500),
        "d": 2,
        "loss_ratio": 0.5,  # final total <= 0.5 x initial, as in criterion 8
        "sample_tol": 0.05,  # |sample mean - data mean| per coordinate; data std is 0.01
    },
    # 8x8 blob images through write_idx/load_idx, default denoiser width 256
    "pixels8-identity": {
        "config": dict(dataset="idx", encoder="identity", denoiser_width=256,
                       batch_size=64, lr=1e-3, steps=1000, log_every=1000,
                       checkpoint_every=500),
        "d": 64,
        "loss_ratio": 0.9,
        "sample_tol": 20.0,  # |mean sample pixel - mean data pixel|, in pixel levels
    },
}


class Checks:
    """Counts attempted and failed operations; failures are described on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, n: int, n_failed: int = 0, what: str = "") -> None:
        self.attempted += n
        self.failed += n_failed
        if n_failed:
            self.failures.append(f"{n_failed}/{n} {what}")
            print(f"FAILED {n_failed}/{n} {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)


class SpeedReference:
    """Times a fixed mix of interpreter and numpy work, to scale timings by.

    The 2-vCPU VM the benchmark was tuned on changes speed by up to 40% for
    minutes at a time, for all code alike: set-up, training, eval and sampling
    speed up and slow down together, which no repetition inside one run
    averages out, and drifts within one run as well.  So the run samples this
    kernel right before and right after every timed operation and scales that
    operation's time by REFERENCE_S / a reference time made from the two
    samples and the median of all samples of its round (see end_to_end):
    figures read as on a machine where the kernel takes REFERENCE_S.  The raw
    figures and the median kernel time are kept in the results file.  The
    kernel spends about a third of its time each on scalar Python, numpy calls
    on tiny arrays and BLAS-sized arrays, the three kinds of work the
    workloads are made of.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((64, 80))
        self._w1 = rng.standard_normal((80, 256)) / 9.0
        self._w2 = rng.standard_normal((256, 80)) / 16.0
        self._col = rng.standard_normal((64, 1))
        self._pair = rng.standard_normal((64, 2))
        self.samples: list[float] = []

    def sample(self) -> float:
        """Median of three kernel times; every time is kept in self.samples."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.samples.extend(times)
        return statistics.median(times)

    def _kernel(self) -> None:
        points = []
        for i in range(12000):
            lam = 13.3 - 18.3 * i / 12000
            a2 = 1.0 / (1.0 + math.exp(-lam))
            points.append({"lam": lam, "alpha": math.sqrt(a2), "sigma": math.sqrt(1.0 - a2)})
        v = self._pair
        for _ in range(800):
            v = (v * self._col + self._pair) * 0.5 - self._col
            v.sum(axis=1, keepdims=True)
        h = self._x
        for _ in range(40):
            h = self._x + 0.1 * (np.tanh(h @ self._w1) @ self._w2)


# --- inputs ----------------------------------------------------------------

def round_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def blob_images(n: int, seed: int) -> np.ndarray:
    """n 8x8 uint8 images, each one Gaussian blob on a faint noise floor."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:8, 0:8]
    centre = rng.uniform(1.5, 5.5, size=(n, 2))
    width = rng.uniform(0.8, 2.0, size=n)
    peak = rng.uniform(150.0, 255.0, size=n)
    d2 = (yy - centre[:, 0, None, None]) ** 2 + (xx - centre[:, 1, None, None]) ** 2
    img = peak[:, None, None] * np.exp(-d2 / (2.0 * width[:, None, None] ** 2))
    img = img + rng.uniform(0.0, 20.0, size=img.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8).reshape(n, 64)


def make_config(ed, workload: dict, seed: int, work: Path):
    """RunConfig of one round; pixel workloads also get their IDX file written."""
    out_dir = work / f"run-{seed}"
    config = ed.RunConfig(**workload["config"], seed=seed, out_dir=str(out_dir))
    if config.dataset == "idx":
        out_dir.mkdir(parents=True, exist_ok=True)
        config.idx_path = str(out_dir / "images.idx")
        dataset = ed.Dataset(items=blob_images(PIXEL_IMAGES, seed), dims=(8, 8),
                             name="blobs8", kind="pixels")
        ed.write_idx(config.idx_path, dataset)
    return config


# --- set-up ----------------------------------------------------------------

def settle_allocator() -> None:
    """Raise glibc malloc's dynamic mmap and trim thresholds before timing.

    glibc hands out blocks above its mmap threshold as fresh mappings until a
    freed mapping raises the threshold to that block's size.  Until then
    arrays of a few hundred KB cost page faults on every allocation, which
    halves sampler throughput, and the first phase that frees a large array
    (verify's Monte-Carlo KL) speeds up every phase after it.  Freeing one
    24 MB block first puts every round under the same allocator state, so the
    end-to-end figures are those of a warm allocator; time_cold_sample()
    measures what a fresh process pays instead.
    """
    block = np.ones(3_000_000)
    del block


def time_cold_sample(workload: dict, seed: int) -> dict:
    """Times one sample run before settle_allocator() and the same run after it.

    A fresh `encdiff sample` process runs under glibc's default malloc
    thresholds.  This builds an untrained model of the workload's shape,
    making no inputs first, and times one ancestral_sample run of the size
    the rounds use (cold_s); then it settles the allocator and times the same
    run again (warm_s).  The traced run does this before its wrappers are
    installed.
    """
    ed = import_encdiff()
    config = ed.RunConfig(**workload["config"], seed=seed)
    model, _encoder, _store = ed.train.build_model(config, workload["d"])
    schedule = ed.LogLinearSchedule(config.lambda_max, config.lambda_min)
    sampler_config = ed.SamplerConfig(steps=SAMPLE_STEPS, counterterm=config.encoder != "identity",
                                      seed=seed)
    times = {}
    for name in ("cold_s", "warm_s"):
        start = time.perf_counter()
        ed.ancestral_sample(model, schedule, sampler_config, n_chains=SAMPLE_CHAINS, d=model.d,
                            pixel_decode=config.dataset == "idx")
        times[name] = time.perf_counter() - start
        settle_allocator()
    return times


def import_encdiff():
    """Import encdiff afresh from src/, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "encdiff" or m.startswith("encdiff.")]:
        del sys.modules[name]
    ed = importlib.import_module("encdiff")
    if not Path(ed.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"encdiff was imported from {ed.__file__}, not from {SRC}")
    importlib.import_module("encdiff.train")
    return ed


def time_setup(config_kwargs: dict) -> float:
    start = time.perf_counter()
    ed = import_encdiff()
    config = ed.RunConfig(**config_kwargs).validate()
    dataset = ed.train.load_dataset(config)
    ed.train.build_model(config, dataset.d)
    return time.perf_counter() - start


# --- one round ---------------------------------------------------------------

def total_loss(ed, model, encoder, items, ts, eps, schedule) -> float:
    """Diffusion plus latent loss on a fixed evaluation set, as in criterion 8.

    The diffusion term is averaged over batches of 512, criterion 8's size, so
    the check does not set the run's peak memory.
    """
    diffusion = np.mean([float(ed.objective.batch_vloss_graph(
        items[i:i + 512], model, encoder, ts[i:i + 512], eps[i:i + 512], schedule).data)
        for i in range(0, len(items), 512)])
    latent = float(np.mean([ed.latent_loss(x, encoder, schedule) for x in items]))
    return float(diffusion) + latent


def same_arrays(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes() for k in a)


def tensor_probe(ed):
    """A function that makes one Tensor and returns its node id; the Tensors made
    between two probes are the difference of their ids minus one."""
    return lambda: ed.Tensor(0.0).node_id


def repeat_for(min_s: float, op, speed: SpeedReference, refs: list) -> None:
    """Call op(k) for k = 0, 1, ... until min_s seconds have passed (at least
    once), appending a speed reference sample to refs before each call and
    one more after the last, so that refs[k] and refs[k + 1] bracket call k."""
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < min_s:
        refs.append(speed.sample())
        op(k)
        k += 1
    refs.append(speed.sample())


def run_round(ed, workload: dict, seed: int, work: Path, checks: Checks,
              speed: SpeedReference, tracer) -> dict:
    """One train -> restore -> eval -> sample -> verify session; returns its figures.

    fig["counts"] maps each deterministic count to its values in this round;
    every value of a count must equal the run's first one.
    """
    probe = tensor_probe(ed)
    n_ref = len(speed.samples)
    phase = (lambda name: setattr(tracer, "phase", name)) if tracer else (lambda name: None)
    config = make_config(ed, workload, seed, work)
    steps = config.steps
    # each list of times "<op>_s" has its speed reference samples in "<op>_s_ref":
    # one before each time and one after the last, see repeat_for; "ref_median"
    # is the median of every reference time of the round
    fig: dict = {"steps": steps, "eval_s": [], "eval_s_ref": [], "eval_stderr_bpd": [],
                 "sample_s": [], "sample_s_ref": [], "verify_s": [], "verify_s_ref": []}
    counts: dict = {}
    fig["counts"] = counts

    def count(name, value):
        counts.setdefault(name, []).append(value)

    phase("train")
    ref = speed.sample()
    n0 = probe()
    start = time.perf_counter()
    try:
        state = ed.train.train(config)
    except Exception:
        checks.ops(steps, steps, "train steps")
        raise
    fig["train_s"] = [time.perf_counter() - start]
    fig["train_s_ref"] = [ref, speed.sample()]
    count("train_tensors", probe() - n0 - 1)
    checks.ops(steps)
    fig["logs"] = len(state.log_rows)
    count("train_model_calls", state.model.calls)
    count("log_rows", len(state.log_rows))
    count("param_arrays", len(state.store.params))
    count("param_scalars", state.store.n_scalars())
    # the file's JSON header holds the seed and paths, so only the payload is a count
    fig["checkpoint_bytes"] = os.path.getsize(state.checkpoint_path)
    count("checkpoint_payload_bytes", sum(a.nbytes for a in state.store.state_arrays().values()))

    phase("restore")
    model, encoder, store, _config, schedule = ed.train.restore(state.checkpoint_path)
    checks.check(same_arrays(state.store.state_arrays(), store.state_arrays())
                 and store.step == state.store.step, "checkpoint save -> load round trip")

    phase("check")
    items = ed.data.real_items(state.dataset)
    rng = np.random.default_rng(seed + 8)
    ts = rng.uniform(0.0, 1.0, size=items.shape[0])
    eps = rng.standard_normal(items.shape)
    init_model, init_encoder, _ = ed.train.build_model(config, items.shape[1])
    initial = total_loss(ed, init_model, init_encoder, items, ts, eps, state.schedule)
    final = total_loss(ed, state.model, state.encoder, items, ts, eps, state.schedule)
    checks.check(final <= workload["loss_ratio"] * initial,
                 f"loss falls: final {final:.4g} > {workload['loss_ratio']} x "
                 f"initial {initial:.4g}")
    fig["loss_ratio"] = final / initial

    phase("eval")
    pixels = state.dataset.kind == "pixels"
    ln2d = state.dataset.d * math.log(2.0)
    eval_rng = np.random.default_rng(seed + 777)

    def eval_block(k):
        n0 = probe()
        block_s, bad = 0.0, 0
        for i in range(k * EVAL_ITEMS, (k + 1) * EVAL_ITEMS):
            start = time.perf_counter()
            bd = ed.elbo_bpd(state.dataset.items[i], model, encoder, schedule, EVAL_DRAWS,
                             eval_rng, pixel_data=pixels)
            block_s += time.perf_counter() - start
            fig["eval_stderr_bpd"].append(bd.diffusion_stderr / ln2d)
            bad += not (math.isfinite(bd.bpd) and math.isfinite(bd.diffusion_stderr))
        fig["eval_s"].append(block_s)
        count("eval_tensors", probe() - n0 - 1)
        checks.ops(EVAL_ITEMS, bad, "eval items with non-finite bpd or stderr")

    repeat_for(EVAL_MIN_S, eval_block, speed, fig["eval_s_ref"])

    phase("sample")
    counterterm = config.encoder != "identity"  # `encdiff sample --counterterm auto`

    def sample_run(k):
        calls0 = model.calls
        sampler_config = ed.SamplerConfig(steps=SAMPLE_STEPS, counterterm=counterterm,
                                          seed=seed + k)
        n0 = probe()
        start = time.perf_counter()
        result = ed.ancestral_sample(model, schedule, sampler_config, n_chains=SAMPLE_CHAINS,
                                     d=model.d, pixel_decode=pixels)
        fig["sample_s"].append(time.perf_counter() - start)
        count("sample_tensors", probe() - n0 - 1)
        count("sample_model_calls", model.calls - calls0)
        checks.ops(1)
        if pixels:
            gap = abs(float(result.pixels.mean()) - float(state.dataset.items.mean()))
        else:
            gap = float(np.max(np.abs(result.x_out.mean(axis=0)
                                      - state.dataset.metadata["mean"])))
        checks.check(gap <= workload["sample_tol"],
                     f"sample mean off the data mean by {gap:.4g} > {workload['sample_tol']}")

    repeat_for(SAMPLE_MIN_S, sample_run, speed, fig["sample_s_ref"])

    phase("verify")
    repeat_for(VERIFY_MIN_S, lambda k: verify_run(ed, fig, checks), speed, fig["verify_s_ref"])
    phase("idle")
    fig["ref_median"] = statistics.median(speed.samples[n_ref:])
    return fig


def verify_run(ed, fig: dict, checks: Checks) -> None:
    """One `encdiff verify`: run_all() at its defaults, timed into fig["verify_s"]."""
    start = time.perf_counter()
    reports = ed.verify.run_all()
    fig["verify_s"].append(time.perf_counter() - start)
    failed = [r.name for r in reports if not r.passed]
    checks.ops(len(reports), len(failed), f"oracles {failed}")
    fig["counts"].setdefault("oracle_checks", []).append(len(reports))


def verify_tail(ed, figs: list[dict], checks: Checks, speed: SpeedReference,
                deadline: float) -> dict:
    """Fills the time after the last round with verify calls while the next one
    is expected to end by deadline (a perf_counter time).

    Without it, the 3 s verify call would be timed only once or twice per 25 s
    round, while up to a round's time of the run goes unused.  Returns a
    figures dict of its own, with ref_median the median of its reference times.
    """
    tail: dict = {"verify_s": [], "verify_s_ref": [], "counts": {}}
    n_ref = len(speed.samples)
    call_s = statistics.median(v for f in figs for v in f["verify_s"])
    while time.perf_counter() + call_s <= deadline:
        tail["verify_s_ref"].append(speed.sample())
        verify_run(ed, tail, checks)
    if tail["verify_s"]:
        tail["ref_median"] = statistics.median(speed.samples[n_ref:])
    return tail


# --- metrics -----------------------------------------------------------------

def end_to_end(figs: list[dict], tail: dict, setup: dict, batch_size: int,
               reference_s: float | None = None) -> dict:
    """End-to-end figures of the run.

    With reference_s, every time is multiplied by reference_s / a reference
    time, so that it reads as at the reference speed; without, the raw
    figures are returned.  The reference time of a call is the median of the
    samples right before and right after it and of the round's (or set-up's)
    ref_median.  One sample of 75 ms now and then reads 30% off the speed of
    the seconds around it; the median drops such a sample but follows a
    change of speed that both samples show.  Over 31 pixels8-identity runs,
    the 4 s sample runs spread by 0.13 (IQR / median of the runs' figures)
    when scaled by the sample before each alone, and by 0.07 scaled this way.

    A verify call is scaled by its round's (or the tail's) ref_median alone:
    the reference follows the drift of run_all()'s speed over minutes, but
    single samples are too noisy for one 3 s call.  Over 49 gauss2d runs,
    the spread of verify_s was 0.10 with the sample before each call, 0.11
    unscaled and 0.06 with the round median.  verify_s also takes in the
    calls of the tail.
    """
    def op(key, parts=figs) -> list[float]:
        out = []
        for f in parts:
            refs = f[key + "_ref"]
            out += [s * reference_s / statistics.median((refs[i], refs[i + 1], f["ref_median"]))
                    if reference_s else s for i, s in enumerate(f[key])]
        return out

    eval_s = op("eval_s")
    stderr_bpd = [v for f in figs for v in f["eval_stderr_bpd"]]
    return {
        "setup_s": statistics.median(op("setup_s", [setup])),
        "train_items_per_s": statistics.median(figs[0]["steps"] * batch_size / s
                                               for s in op("train_s")),
        "eval_draws_per_s": statistics.median(EVAL_ITEMS * EVAL_DRAWS / s for s in eval_s),
        # squared stderr of one pooled eval over every item, times its wall time
        "eval_stderr2_s": sum(s * s for s in stderr_bpd) / len(stderr_bpd) ** 2 * sum(eval_s),
        "sample_chain_steps_per_s": statistics.median(SAMPLE_CHAINS * SAMPLE_STEPS / s
                                                      for s in op("sample_s")),
        "verify_s": statistics.median(v * reference_s / f["ref_median"] if reference_s else v
                                      for f in figs + [tail] for v in f["verify_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


STEP_BRANCHES = ("data.batch", "objective.vloss", "objective.latent", "autodiff.grad",
                 "optim.step")
LOG_BRANCHES = ("objective.latent_loss", "objective.reconstruction", "encoder.encode")


def per_layer(tracer, figs: list[dict], tail: dict, cold_sample: dict) -> dict:
    """Per-layer metrics of the traced run.

    Train times are self times per train step over whole train() calls, so
    with train.self_ms they add up to train.step_ms.  Train counts are per
    step of the step loop only (STEP_BRANCHES), without logging, checkpoint
    writes and model build.  Verify figures are per run_all() call.
    """
    from tracer import VERIFY_FAMILIES

    steps = sum(f["steps"] for f in figs)
    logs = sum(f["logs"] for f in figs)
    draws = EVAL_ITEMS * EVAL_DRAWS * sum(len(f["eval_s"]) for f in figs)
    sample_runs = sum(len(f["sample_s"]) for f in figs)
    sample_steps = SAMPLE_STEPS * sample_runs
    verify_runs = sum(len(f["verify_s"]) for f in figs + [tail])

    def train(key, step_loop=False, **select):
        scale = 1e3 if key.endswith("_s") else 1.0
        branches = STEP_BRANCHES if step_loop else None
        return tracer.select("train", branches=branches, **select)[key] * scale / steps

    def per_call_ms(phase, name):
        s = tracer.select(phase, names={name})
        return s["total_s"] * 1e3 / max(s["count"], 1)

    out = {
        "train.step_ms": train("total_s", names={"train.train"}),
        "schedule.at_calls": train("count", True, names={"schedule.at"}),
        "schedule.at_ms": train("self_s", names={"schedule.at"}),
        "autodiff.tensors": train("tensors", True),
        "autodiff.graph_walks": train("count", True,
                                      names={"autodiff.backward", "autodiff.reachable_ids"}),
        "autodiff.grad_ms": train("self_s", prefix="autodiff."),
        "nets.denoiser_calls": train("count", True, names={"nets.denoiser"}),
        "nets.denoiser_rows": train("rows", True, names={"nets.denoiser"}),
        "nets.denoiser_fwd_ms": train("self_s", names={"nets.denoiser"}),
        "encoder.inner_passes": train("count", True, names={"encoder.inner"}),
        "encoder.inner_rows": train("rows", True, names={"encoder.inner"}),
        "encoder.self_ms": train("self_s", prefix="encoder."),
        "objective.vloss_self_ms": train("self_s", names={"objective.vloss"}),
        "objective.latent_self_ms": train("self_s",
                                          names={"objective.latent", "objective.latent_loss"}),
        "optim.step_ms": train("self_s", names={"optim.step"}),
        "optim.param_arrays": figs[0]["counts"]["param_arrays"][0],
        "optim.scalars": figs[0]["counts"]["param_scalars"][0],
        "checkpoint.save_ms": per_call_ms("train", "checkpoint.save"),
        "checkpoint.load_ms": per_call_ms("restore", "checkpoint.load"),
        "checkpoint.bytes": statistics.mean(f["checkpoint_bytes"] for f in figs),
        "data.batch_ms": train("self_s", names={"data.batch"}),
        "data.load_ms": per_call_ms("train", "data.load"),
        "io_utils.write_csv_ms": per_call_ms("train", "io_utils.write_csv"),
        "train.metrics_ms_per_log": sum(tracer.branch_s.get(("train", b), 0.0)
                                        for b in LOG_BRANCHES) * 1e3 / logs,
        "train.self_ms": train("self_s", prefix="train."),
        "objective.eval_ms_per_draw": tracer.select("eval", names={"objective.eval"})["total_s"]
                                      * 1e3 / draws,
        "objective.eval_tensors_per_draw": tracer.select("eval", names={"objective.eval"}
                                                         )["tensors"] / draws,
        "sampler.ms_per_step": tracer.select("sample", names={"sampler.ancestral"})["total_s"]
                               * 1e3 / sample_steps,
        "sampler.cold_ms_per_step": cold_sample["cold_s"] * 1e3 / SAMPLE_STEPS,
        "sampler.model_calls": tracer.select("sample", names={"nets.denoiser"})["count"]
                               / sample_runs,
        "sampler.tensors_per_step": tracer.select("sample", names={"sampler.ancestral"}
                                                  )["tensors"] / sample_steps,
        "process.calls": tracer.select("verify", prefix="process.")["count"] / verify_runs,
        "process.ms": tracer.select("verify", prefix="process.")["self_s"] * 1e3 / verify_runs,
    }
    for family in VERIFY_FAMILIES.values():
        out[f"verify.{family}_s"] = tracer.select("verify", names={f"verify.{family}"}
                                                  )["total_s"] / verify_runs
    return out


def step_breakdown(tracer, figs: list[dict]) -> dict:
    """Self ms per train step by layer; the layers add up to the traced step time."""
    steps = sum(f["steps"] for f in figs)
    step_ms = tracer.select("train", names={"train.train"})["total_s"] * 1e3 / steps
    layers = {layer: self_s * 1e3 / steps
              for layer, self_s in sorted(tracer.layer_self_s("train").items(),
                                          key=lambda kv: -kv[1])}
    print(f"traced train step {step_ms:.4f} ms, self time by layer:")
    for layer, ms in layers.items():
        print(f"  {layer:<12s} {ms:9.4f} ms  {100 * ms / step_ms:5.1f}%")
    print(f"  {'sum':<12s} {sum(layers.values()):9.4f} ms")
    return {"step_ms": step_ms, "self_ms_by_layer": layers}


def tracing_overhead(args, traced: dict) -> dict:
    """Traced minus untraced end-to-end metrics, against the untraced run of the
    same workload and seed if one was saved; empty otherwise."""
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace0.json"
    try:
        untraced = json.loads(path.read_text())["end_to_end"]
    except (OSError, KeyError, ValueError):
        return {}
    overhead = {name: {"traced": traced[name], "untraced": untraced[name],
                       "change": traced[name] / untraced[name] - 1.0}
                for name in traced if name in untraced}
    for name, o in overhead.items():
        print(f"tracing overhead {name:<26s} {100 * o['change']:+7.1f}%")
    return overhead


# --- stamp -------------------------------------------------------------------

def git_sha() -> str:
    # without its own .git, git would report some enclosing repository's HEAD
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "encdiff").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def stamp(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": src_sha256(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_version(), "nproc": os.cpu_count(),
        "cpu": CPU, "blas_threads": int(BLAS_THREADS),
    }


# --- main --------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "encdiff" / "__init__.py").is_file():
        print(f"error: no encdiff package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    checks = Checks()
    speed = SpeedReference()
    figs: list[dict] = []
    tail: dict = {"verify_s": [], "counts": {}}
    tracer = None
    cold_sample: dict = {}
    try:
        if args.trace:
            cold_sample = time_cold_sample(workload, round_seed(args.seed, 0))
            print(f"cold sample run {cold_sample['cold_s']:.4g} s, after settle_allocator() "
                  f"{cold_sample['warm_s']:.4g} s")
        settle_allocator()
        ed = import_encdiff()
        first = make_config(ed, workload, round_seed(args.seed, 0), work)
        setup_kwargs = dict(workload["config"], seed=first.seed, idx_path=first.idx_path)
        setup: dict = {"setup_s": [], "setup_s_ref": []}
        n_ref = len(speed.samples)
        for _ in range(SETUP_REPS):
            setup["setup_s_ref"].append(speed.sample())
            setup["setup_s"].append(time_setup(setup_kwargs))
        setup["setup_s_ref"].append(speed.sample())
        setup["ref_median"] = statistics.median(speed.samples[n_ref:])
        ed = sys.modules["encdiff"]
        importlib.import_module("encdiff.verify")
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(tensor_probe(ed))
            tracer.install()
        start = time.perf_counter()
        durations: list[float] = []
        while True:
            round_start = time.perf_counter()
            if tracer is not None:
                tracer.keep_spans = not figs
            try:
                figs.append(run_round(ed, workload, round_seed(args.seed, len(durations)),
                                      work, checks, speed, tracer))
            except Exception:
                traceback.print_exc()
                checks.check(False, "round raised")
            durations.append(time.perf_counter() - round_start)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(durations) > args.seconds:
                break
        if figs:
            if tracer is not None:
                tracer.keep_spans = False
                tracer.phase = "verify"
            tail = verify_tail(ed, figs, checks, speed, start + args.seconds)
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first_counts = {name: values[0] for name, values in figs[0]["counts"].items()} if figs else {}
    for name, first in first_counts.items():
        values = [v for f in figs + [tail] for v in f["counts"].get(name, [])]
        checks.check(all(v == first for v in values), f"count {name} varies: {sorted(set(values))}")
    info = {"stamp": stamp(args), "speed_reference_s": statistics.median(speed.samples),
            "cold_sample": cold_sample,
            "failed_rounds": len(durations) - len(figs), "round_s": durations,
            "counts": first_counts, "failures": checks.failures,
            "rounds": [{key: value for key, value in f.items() if key != "counts"}
                       for f in figs],
            "verify_tail": {key: value for key, value in tail.items() if key != "counts"}}
    print("stamp " + json.dumps(info["stamp"]))
    print("counts " + json.dumps(info["counts"]))
    metrics = {}
    if figs:
        batch_size = workload["config"]["batch_size"]
        info["end_to_end_raw"] = end_to_end(figs, tail, setup, batch_size)
        info["end_to_end"] = end_to_end(figs, tail, setup, batch_size, REFERENCE_S)
        kind, values = "end_to_end", info["end_to_end"]
        if tracer is not None:
            info["train_step_breakdown"] = step_breakdown(tracer, figs)
            info["tracing_overhead"] = tracing_overhead(args, info["end_to_end"])
            kind, values = "per_layer", per_layer(tracer, figs, tail, cold_sample)
            info["per_layer"] = values
        specs = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    for name, m in metrics.items():
        print(f"{name:<34s} {m['value']:.6g} {m['unit']}")
    (OUT / "results").mkdir(exist_ok=True)
    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(info, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps({"correct": checks.failed == 0 and bool(figs),
                      "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
