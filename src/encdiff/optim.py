"""Adaptive-moment optimizer with bias correction.

Moment buffers live in the ParamStore so they serialize with the checkpoint.
The gradient arrives as one flat buffer laid out like ParamStore.flat (what
autodiff.grad returns for the store's tensors), and the update runs on the
flat buffers as a few whole-array operations, in the same order per entry as
a per-parameter update.  A step with any non-finite gradient is rejected
without touching parameters, moments or the step counter, and so is a step
whose update would be non-finite.
"""

from __future__ import annotations

import numpy as np

from .autodiff import all_finite
from .errors import NumericsError
from .nets import ParamStore

DEFAULT_LR = 3e-4
BETA1 = 0.9
BETA2 = 0.999
EPS_HAT = 1e-8


def _first_nonfinite(store: ParamStore, *flats: np.ndarray) -> str:
    """Name of the first parameter with a non-finite entry in any of the flat buffers."""
    views = [store.views(flat) for flat in flats]
    return next(name for name in store.params
                if not all(np.isfinite(v[name]).all() for v in views))


def optimizer_step(store: ParamStore, g_flat: np.ndarray, lr: float = DEFAULT_LR) -> None:
    """One adaptive-moment update over every parameter in the store.

    β1, β2 and ε̂ are the module constants BETA1, BETA2 and EPS_HAT.  g_flat
    holds every parameter's gradient in the layout of store.flat.  The update
    uses it as scratch space, so its contents are undefined afterwards.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    g = np.asarray(g_flat, dtype=np.float64)
    if g.shape != store.flat.shape:
        raise ValueError(f"gradient has shape {g.shape}; the store holds "
                         f"{store.n_scalars()} scalars")
    if not all_finite(g):
        name = _first_nonfinite(store, g)
        raise NumericsError(f"non-finite gradient for parameter '{name}'; step rejected")
    # the whole update is staged in `work`, validated, then committed, so a
    # rejected step leaves parameters and moments untouched
    work = np.empty((3, store.n_scalars()))
    m, v, new = work
    t = store.step + 1
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    with np.errstate(over="ignore", invalid="ignore"):
        # m = β1·m + (1 − β1)·g
        np.multiply(store.m_flat, BETA1, out=m)
        np.multiply(g, 1.0 - BETA1, out=new)
        np.add(m, new, out=m)
        # v = β2·v + (1 − β2)·g·g
        np.multiply(g, 1.0 - BETA2, out=new)
        np.multiply(new, g, out=new)
        np.multiply(store.v_flat, BETA2, out=v)
        np.add(v, new, out=v)
        # θ − lr·((m / c1) / (√(v / c2) + ε̂)); g now holds the denominator
        np.divide(v, c2, out=g)
        np.sqrt(g, out=g)
        np.add(g, EPS_HAT, out=g)
        np.divide(m, c1, out=new)
        np.divide(new, g, out=new)
        np.multiply(new, lr, out=new)
        np.subtract(store.flat, new, out=new)
    if not (all_finite(new) and all_finite(v)):
        name = _first_nonfinite(store, new, v)
        raise NumericsError(f"non-finite update for parameter '{name}'; step rejected")
    store.flat[...] = new
    store.m_flat[...] = m
    store.v_flat[...] = v
    store.step = t

