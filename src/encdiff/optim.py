"""Adaptive-moment optimizer with bias correction.

Moment buffers live in the ParamStore so they serialize with the checkpoint.
The gradient arrives as one flat buffer laid out like ParamStore.flat (what
autodiff.grad returns for the store's tensors), and the update runs on the
flat buffers as a few whole-array operations, in the same order per entry as
a per-parameter update.  The new moments go into fresh arrays and the new
parameters are built in the gradient buffer, so the old moments and
parameters are only read until the update is checked.  An accepted step then
copies the parameters into ParamStore.flat and replaces m_flat and v_flat
with the new arrays.  A step with any non-finite gradient is rejected without
touching parameters, moments or the step counter, and so is a step whose
update would be non-finite: neither writes m_flat or v_flat.
"""

from __future__ import annotations

import math

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
    is built in it, so its contents are undefined afterwards.  An accepted
    step replaces store.m_flat and store.v_flat with new arrays; a rejected
    one writes neither.
    """
    if not (lr > 0 and math.isfinite(lr)):
        raise ValueError(f"learning rate must be a positive finite number, got {lr}")
    g = np.asarray(g_flat, dtype=np.float64)
    if g.shape != store.flat.shape:
        raise ValueError(f"gradient has shape {g.shape}; the store holds "
                         f"{store.n_scalars()} scalars")
    if not all_finite(g):
        name = _first_nonfinite(store, g)
        raise NumericsError(f"non-finite gradient for parameter '{name}'; step rejected")
    # one block for both new moments: in a fresh process that frees no other
    # array this large between steps, two separate arrays were slower
    m, v = np.empty((2, store.n_scalars()))
    t = store.step + 1
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    with np.errstate(over="ignore", invalid="ignore"):
        # m = β1·m + (1 − β1)·g, with v as scratch (+ commutes, so the bits match)
        np.multiply(g, 1.0 - BETA1, out=m)
        np.multiply(store.m_flat, BETA1, out=v)
        np.add(v, m, out=m)
        # v = β2·v + (1 − β2)·g·g; g is scratch from here on
        np.multiply(g, 1.0 - BETA2, out=v)
        np.multiply(v, g, out=v)
        np.multiply(store.v_flat, BETA2, out=g)
        np.add(g, v, out=v)
        # θ − lr·((m / c1) / (√(v / c2) + ε̂)), built in g; c1 rounds to
        # exactly 1.0 from t = 356, where m / c1 is m
        np.divide(v, c2, out=g)
        np.sqrt(g, out=g)
        np.add(g, EPS_HAT, out=g)
        np.divide(m if c1 == 1.0 else m / c1, g, out=g)
        np.multiply(g, lr, out=g)
        np.subtract(store.flat, g, out=g)
    if not (all_finite(g) and all_finite(v)):
        name = _first_nonfinite(store, g, v)
        raise NumericsError(f"non-finite update for parameter '{name}'; step rejected")
    store.flat[...] = g
    store.m_flat, store.v_flat = m, v
    store.step = t
