"""Training loop: single-sample diffusion objective with latent and
reconstruction terms tracked for reporting.

Each step draws one (t, ε) pair per datapoint, builds the differentiable batch
loss, and applies one adaptive-moment update to the denoiser parameters (and,
for the trainable encoder, the inner-network parameters through the same
loss).  A non-finite loss or gradient aborts the run with the last good
checkpoint retained on disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import grad
from .checkpoint import Checkpoint, save as save_checkpoint
from .config import RunConfig
from .data import Dataset, PIXELS, batches, load_idx, real_items, synth_gaussian2d
from .encoder import Encoder, make_encoder
from .errors import ConfigError, NumericsError
from .io_utils import write_csv
from .nets import DenoiserNet, EncoderInnerNet, ParamStore
from .objective import (
    LossBreakdown,
    batch_latent_graph,
    batch_vloss_graph,
    latent_loss,
    reconstruction_loss,
)
from .optim import Adam
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
    initial_total: float = float("nan")
    final_total: float = float("nan")


def load_dataset(config: RunConfig) -> Dataset:
    if config.dataset == "gaussian2d":
        return synth_gaussian2d(config.n_points, [config.mean_x, config.mean_y],
                                config.cov_scale, seed=config.seed)
    if config.dataset == "idx":
        return load_idx(config.idx_path)
    raise ConfigError(f"unknown dataset '{config.dataset}'")


def build_model(config: RunConfig, d: int) -> tuple[DenoiserNet, Encoder, ParamStore]:
    store = ParamStore()
    model = DenoiserNet(d=d, width=config.denoiser_width, n_hidden=config.denoiser_hidden,
                        seed=config.seed, store=store)
    inner = None
    if config.encoder == "trainable":
        inner = EncoderInnerNet(d=d, width=config.encoder_width,
                                n_hidden=config.encoder_hidden,
                                seed=config.seed + 1, store=store)
    encoder = make_encoder(config.encoder, inner_net=inner)
    return model, encoder, store


def _loss_metrics(x_batch: np.ndarray, state: TrainState, diffusion: float,
                  rng: np.random.Generator) -> LossBreakdown:
    """Batch-mean loss components at the current parameters."""
    latent = latent_loss(x_batch, state.encoder, state.schedule)
    recon = 0.0
    if state.dataset.kind == PIXELS:
        p0 = state.schedule.at(0.0)
        recon_vals = []
        # metrics only: a handful of items keeps logging cheap on image data
        for x in x_batch[: min(8, len(x_batch))]:
            x0 = state.encoder.encode(x, p0)
            z0 = p0.alpha * x0 + p0.sigma * rng.standard_normal(x.size)
            pixels = np.rint((x + 1.0) * 255.0 / 2.0).astype(np.int64)
            recon_vals.append(reconstruction_loss(pixels, z0, state.schedule))
        recon = float(np.mean(recon_vals))
    return LossBreakdown.from_components(diffusion=diffusion, latent=latent,
                                         reconstruction=recon, d=x_batch.shape[1])


def _write_checkpoint(state: TrainState, path: str) -> None:
    ckpt = Checkpoint(
        lambda_max=state.config.lambda_max,
        lambda_min=state.config.lambda_min,
        encoder_kind=state.config.encoder,
        step=state.store.step,
        arrays=state.store.state_arrays(),
        config_hash=state.config.hash(),
        config_text=state.config.to_text(),
        meta={
            "d": state.model.d,
            "denoiser_width": state.config.denoiser_width,
            "denoiser_hidden": state.config.denoiser_hidden,
            "encoder_width": state.config.encoder_width,
            "encoder_hidden": state.config.encoder_hidden,
        },
    )
    save_checkpoint(path, ckpt)


def restore(path: str) -> tuple[DenoiserNet, Encoder, ParamStore, RunConfig, LogLinearSchedule]:
    """Rebuild model, encoder and optimizer state from a checkpoint file."""
    from .checkpoint import load as load_checkpoint

    ckpt = load_checkpoint(path)
    config = RunConfig.from_text(ckpt.config_text) if ckpt.config_text else RunConfig()
    config.lambda_max = ckpt.lambda_max
    config.lambda_min = ckpt.lambda_min
    config.encoder = ckpt.encoder_kind
    if "d" not in ckpt.meta:
        raise ConfigError(f"not a model checkpoint (its meta has no 'd'): {path}")
    d = int(ckpt.meta["d"])
    model, encoder, store = build_model(config, d)
    store.load_state_arrays(ckpt.arrays, step=ckpt.step)
    return model, encoder, store, config, LogLinearSchedule(config.lambda_max, config.lambda_min)


def train(config: RunConfig, progress=None) -> TrainState:
    """Run the full training loop; returns the final state with the loss log."""
    config.validate()
    schedule = LogLinearSchedule(config.lambda_max, config.lambda_min)
    dataset = load_dataset(config)
    items = real_items(dataset)
    d = items.shape[1]
    model, encoder, store = build_model(config, d)
    adam = Adam(store, lr=config.lr, beta1=config.beta1, beta2=config.beta2,
                eps_hat=config.eps_hat)
    state = TrainState(config=config, schedule=schedule, dataset=dataset,
                       model=model, encoder=encoder, store=store)

    os.makedirs(config.out_dir, exist_ok=True)
    from .io_utils import atomic_write_text

    atomic_write_text(os.path.join(config.out_dir, "config.ini"), config.to_text())
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
        try:
            loss = batch_vloss_graph(x_batch, model, encoder, ts, eps, schedule)
            objective = loss
            if encoder.trainable:
                # the latent term keeps the encoder's t=1 output anchored near
                # zero; it is a constant for the other encoder kinds
                objective = loss + batch_latent_graph(x_batch, encoder, schedule)
            grads = dict(zip(store.names(), grad(objective, store.tensors(),
                                                 allow_unused=True)))
            adam.step(grads)
        except NumericsError:
            # parameters are still finite here: forward ops reject non-finite
            # values before any state is touched, and the optimizer rejects
            # non-finite gradients before mutating.  Save them for post-mortem.
            _write_checkpoint(state, ckpt_path)
            flush_curve()
            raise
        diffusion = float(loss.data)
        if step == 0 or (step + 1) % config.log_every == 0 or step == config.steps - 1:
            metrics = _loss_metrics(x_batch, state, diffusion, metrics_rng)
            state.log_rows.append((store.step, metrics.diffusion, metrics.latent,
                                   metrics.reconstruction, metrics.total_nats, metrics.bpd))
            if step == 0:
                state.initial_total = metrics.total_nats
            state.final_total = metrics.total_nats
            if progress is not None:
                progress(store.step, metrics)
            flush_curve()
        if (step + 1) % config.checkpoint_every == 0 or step == config.steps - 1:
            _write_checkpoint(state, ckpt_path)
    return state
