"""Variational diffusion models with a time-dependent data encoder.

Core pieces: a log-SNR noise schedule, the closed-form Gaussian transition
algebra (with the encoder's mean-shift term and the generative counterterm),
v-parameterized continuous-time losses whose gradients go straight to
(parameter, gradient) pairs, desk-scale networks, encoder-free samplers, and
independent verification oracles for every identity the implementation
relies on.
"""

from .schedule import LogLinearSchedule, SchedulePoint
from .process import (
    OPTIMAL,
    GaussianParams,
    TransitionCoefficients,
    forward_transition,
    generative_mean,
    kl_isotropic,
    marginal,
    optimal_sigma_p,
    reverse_posterior,
    transition_coefficients,
)
from .encoder import (
    IdentityEncoder,
    NonTrainableEncoder,
    TrainableEncoder,
    change_heatmap,
    make_encoder,
)
from .objective import (
    LossBreakdown,
    MonteCarloEstimate,
    continuous_vloss,
    continuous_xloss,
    discrete_diffusion_loss,
    elbo_bpd,
    latent_loss,
    reconstruction_loss,
)
from .autodiff import Tensor, grad
from .nets import DenoiserNet, EncoderInnerNet, ParamStore
from .optim import optimizer_step
from .sampler import SamplerConfig, ancestral_sample, sde_forward_step, sde_step
from .data import Dataset, load_idx, scale_pixels, synth_gaussian2d, write_idx
from .config import RunConfig

__version__ = "0.1.0"

__all__ = [
    "OPTIMAL",
    "Dataset",
    "DenoiserNet",
    "EncoderInnerNet",
    "GaussianParams",
    "IdentityEncoder",
    "LogLinearSchedule",
    "LossBreakdown",
    "MonteCarloEstimate",
    "NonTrainableEncoder",
    "ParamStore",
    "RunConfig",
    "SamplerConfig",
    "SchedulePoint",
    "Tensor",
    "TrainableEncoder",
    "TransitionCoefficients",
    "ancestral_sample",
    "change_heatmap",
    "continuous_vloss",
    "continuous_xloss",
    "discrete_diffusion_loss",
    "elbo_bpd",
    "forward_transition",
    "generative_mean",
    "grad",
    "kl_isotropic",
    "latent_loss",
    "load_idx",
    "make_encoder",
    "marginal",
    "optimal_sigma_p",
    "optimizer_step",
    "reconstruction_loss",
    "reverse_posterior",
    "scale_pixels",
    "sde_forward_step",
    "sde_step",
    "synth_gaussian2d",
    "transition_coefficients",
    "write_idx",
]
