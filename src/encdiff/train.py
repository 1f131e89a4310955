"""Training loop: single-sample diffusion objective with latent and
reconstruction terms tracked for reporting.

Each step draws one (t, ε) pair per datapoint, builds the differentiable batch
loss, and applies one adaptive-moment update to the denoiser parameters (and,
for the trainable encoder, the inner-network parameters through the same
loss).  A non-finite loss, gradient or logged metric aborts the run with the
last finite parameters saved to the checkpoint, and its error names the step.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import grad
from .checkpoint import Checkpoint, load as load_checkpoint, save as save_checkpoint
from .config import RunConfig
from .data import Dataset, PIXELS, batches, load_idx, real_items, synth_gaussian2d
from .encoder import ENCODERS, Encoder, make_encoder
from .errors import ConfigError, NumericsError
from .io_utils import atomic_write_bytes, write_csv
from .nets import DenoiserNet, EncoderInnerNet, ParamStore
from .objective import (
    LossBreakdown,
    batch_latent_graph,
    batch_vloss_graph,
    latent_loss,
    sampled_reconstruction_loss,
)
from .optim import optimizer_step
from .schedule import LogLinearSchedule


@dataclass
class TrainState:
    config: RunConfig
    schedule: LogLinearSchedule
    dataset: Dataset
    model: DenoiserNet
    encoder: Encoder
    store: ParamStore
    log_rows: list = field(default_factory=list)
    checkpoint_path: str = ""


def load_dataset(config: RunConfig) -> Dataset:
    if config.dataset == "gaussian2d":
        return synth_gaussian2d(config.n_points, [config.mean_x, config.mean_y],
                                config.cov_scale, seed=config.seed)
    if config.dataset == "idx":
        return load_idx(config.idx_path)
    raise ConfigError(f"unknown dataset '{config.dataset}'")


def build_model(config: RunConfig, d: int) -> tuple[DenoiserNet, Encoder, ParamStore]:
    store = ParamStore()
    model = DenoiserNet(d=d, width=config.denoiser_width, seed=config.seed, store=store)
    inner = None
    if ENCODERS[config.encoder].trainable:
        inner = EncoderInnerNet(d=d, width=config.encoder_width, seed=config.seed + 1,
                                store=store)
    return model, make_encoder(config.encoder, inner_net=inner), store


def _loss_metrics(x_batch: np.ndarray, state: TrainState, diffusion: float,
                  rng: np.random.Generator) -> LossBreakdown:
    """Batch-mean loss components for the log: diffusion is the step's v-loss
    from before its update, and the latent and reconstruction terms are taken
    after optimizer_step, at the updated parameters."""
    latent = latent_loss(x_batch, state.encoder, state.schedule)
    recon = 0.0
    if state.dataset.kind == PIXELS:
        # metrics only: a handful of items keeps logging cheap on image data
        recon = sampled_reconstruction_loss(x_batch[:8], state.encoder, state.schedule, rng)
    return LossBreakdown(diffusion=diffusion, latent=latent, reconstruction=recon,
                         d=x_batch.shape[1])


def _write_checkpoint(state: TrainState, path: str) -> None:
    save_checkpoint(path, Checkpoint(step=state.store.step, arrays=state.store.state_arrays(),
                                     config_text=state.config.to_text(),
                                     config_hash=state.config.hash()))


def restore(path: str) -> tuple[DenoiserNet, Encoder, ParamStore, RunConfig, LogLinearSchedule]:
    """Rebuild model, encoder and optimizer state from a checkpoint file.

    The run is described by the checkpoint's config text alone, whose hash
    must be the stored config_hash; the data dimension is the size of the
    denoiser's output bias.
    """
    ckpt = load_checkpoint(path)
    config = RunConfig.from_text(ckpt.config_text).validate()
    if ckpt.config_hash != config.hash():
        raise ConfigError(f"checkpoint config_hash {ckpt.config_hash!r} is not the hash of its "
                          f"config text, {config.hash()!r}: {path}")
    out_b = ckpt.arrays.get("param/denoiser.out.b")
    if out_b is None or out_b.ndim != 1 or out_b.size < 1:
        raise ConfigError(f"not a model checkpoint (no 1-D array 'param/denoiser.out.b' "
                          f"of size >= 1): {path}")
    model, encoder, store = build_model(config, out_b.size)
    store.load_state_arrays(ckpt.arrays, step=ckpt.step)
    return model, encoder, store, config, config.schedule()


def train(config: RunConfig, progress=None) -> TrainState:
    """Run the full training loop; returns the final state with the loss log."""
    config.validate()
    schedule = config.schedule()
    dataset = load_dataset(config)
    items = real_items(dataset)
    d = items.shape[1]
    model, encoder, store = build_model(config, d)
    state = TrainState(config=config, schedule=schedule, dataset=dataset,
                       model=model, encoder=encoder, store=store)

    atomic_write_bytes(os.path.join(config.out_dir, "config.ini"), config.to_text().encode())
    ckpt_path = os.path.join(config.out_dir, "model.ckpt")
    curve_path = os.path.join(config.out_dir, "loss_curve.csv")
    state.checkpoint_path = ckpt_path
    rng = np.random.default_rng(config.seed)
    metrics_rng = np.random.default_rng(config.seed + 10_000)

    def flush_curve() -> None:
        write_csv(curve_path,
                  ["step", "diffusion", "latent", "reconstruction", "total", "bpd"],
                  state.log_rows, config_hash=config.hash())

    def batch_stream():
        while True:
            yield from batches(items, config.batch_size, rng)

    stream = batch_stream()
    for step in range(config.steps):
        x_batch = next(stream)
        ts = rng.uniform(0.0, 1.0, size=x_batch.shape[0])
        eps = rng.standard_normal(x_batch.shape)
        log = step == 0 or (step + 1) % config.log_every == 0 or step == config.steps - 1
        try:
            loss = batch_vloss_graph(x_batch, model, encoder, ts, eps, schedule)
            objective = loss
            if encoder.trainable:
                # the latent term keeps the encoder's t=1 output anchored near
                # zero; it is a constant for the other encoder kinds
                objective = loss + batch_latent_graph(x_batch, encoder, schedule)
            optimizer_step(store, grad(objective, store.parameters()), config.lr)
            metrics = _loss_metrics(x_batch, state, float(loss.data), metrics_rng) if log else None
        except NumericsError as err:
            # parameters are still finite here: forward ops reject non-finite
            # values before any state is touched, the optimizer rejects
            # non-finite gradients before mutating, and the metrics follow an
            # accepted update.  Save them for post-mortem.
            _write_checkpoint(state, ckpt_path)
            flush_curve()
            raise NumericsError(f"training step {step + 1}: {err}") from err
        if metrics is not None:
            state.log_rows.append((store.step, metrics.diffusion, metrics.latent,
                                   metrics.reconstruction, metrics.total_nats, metrics.bpd))
            if progress is not None:
                progress(store.step, metrics)
            flush_curve()
        if (step + 1) % config.checkpoint_every == 0 or step == config.steps - 1:
            _write_checkpoint(state, ckpt_path)
    return state
