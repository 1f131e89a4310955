"""Desk-scale networks: a v-prediction denoiser and the encoder's inner network.

Both are small MLPs on the flattened input concatenated with a sinusoidal
embedding of the log-SNR λ (8 frequencies on a geometric ladder).  Output
layers are zero-initialized, so at initialization the denoiser predicts v̂ = 0
and the inner encoder network contributes nothing.

Conditioning is on λ rather than t throughout, which keeps all derivative
bookkeeping in a single variable.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import NumericsError

N_FREQUENCIES = 8
# Geometric ladder topping out near omega = 2: the λ-derivative of the
# trainable encoder is estimated with a finite-difference step h = 1e-3 times
# the λ span (~0.018), and the ladder cap keeps that step's truncation error
# ((omega h)^2/6 per component) below the 1e-3 consistency budget.
_FREQ_BASE = 0.04
_FREQ_RATIO = 1.75


def sinusoidal_embedding(lam, n_freq: int = N_FREQUENCIES) -> np.ndarray:
    """Map λ (scalar or (B,) array) to (B, 2·n_freq) sin/cos features."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    freqs = _FREQ_BASE * _FREQ_RATIO ** np.arange(n_freq)
    phases = lam[:, None] * freqs[None, :]
    return np.concatenate([np.sin(phases), np.cos(phases)], axis=1)


class ParamStore:
    """Named parameter tensors with their gradient slots and optimizer moments."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.step: int = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name '{name}'")
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True, name=name)
        self.params[name] = t
        self.m[name] = np.zeros_like(t.data)
        self.v[name] = np.zeros_like(t.data)
        return t

    def names(self) -> list[str]:
        return list(self.params.keys())

    def tensors(self) -> list[Tensor]:
        return list(self.params.values())

    def n_scalars(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        """All arrays that must round-trip through a checkpoint, by name."""
        out: dict[str, np.ndarray] = {}
        for name, t in self.params.items():
            out[f"param/{name}"] = t.data
            out[f"adam_m/{name}"] = self.m[name]
            out[f"adam_v/{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step: int) -> None:
        for name, t in self.params.items():
            t.data = np.array(arrays[f"param/{name}"], dtype=np.float64)
            self.m[name] = np.array(arrays[f"adam_m/{name}"], dtype=np.float64)
            self.v[name] = np.array(arrays[f"adam_v/{name}"], dtype=np.float64)
        self.step = step


def _init_linear(store: ParamStore, prefix: str, n_in: int, n_out: int,
                 rng: np.random.Generator, zero: bool = False) -> tuple[Tensor, Tensor]:
    if zero:
        w = np.zeros((n_in, n_out))
    else:
        w = rng.standard_normal((n_in, n_out)) / np.sqrt(n_in)
    weight = store.add(f"{prefix}.w", w)
    bias = store.add(f"{prefix}.b", np.zeros(n_out))
    return weight, bias


class MLP:
    """tanh MLP with residual hidden blocks and a zero-initializable output layer.

    Input is [x, sinusoidal_embedding(λ)]; hidden layers all share one width so
    residual connections apply between consecutive hidden blocks.
    """

    def __init__(self, store: ParamStore, prefix: str, d_in: int, d_out: int,
                 width: int, n_hidden: int, rng: np.random.Generator,
                 residual: bool = True, zero_output: bool = True):
        self.store = store
        self.prefix = prefix
        self.d_in = d_in
        self.d_out = d_out
        self.width = width
        self.n_hidden = n_hidden
        self.residual = residual
        n_feat = d_in + 2 * N_FREQUENCIES
        self.layers: list[tuple[Tensor, Tensor]] = []
        self.layers.append(_init_linear(store, f"{prefix}.in", n_feat, width, rng))
        for i in range(1, n_hidden):
            self.layers.append(_init_linear(store, f"{prefix}.h{i}", width, width, rng))
        self.out_layer = _init_linear(store, f"{prefix}.out", width, d_out, rng, zero=zero_output)

    def forward(self, x: Tensor | np.ndarray, lam) -> Tensor:
        """Graph-mode forward pass; x is (B, d_in), lam scalar or (B,)."""
        x = Tensor.as_tensor(x)
        if x.data.ndim != 2 or x.data.shape[1] != self.d_in:
            raise ValueError(f"expected input of shape (B, {self.d_in}), got {x.shape}")
        emb = sinusoidal_embedding(lam)
        if emb.shape[0] == 1 and x.data.shape[0] > 1:
            emb = np.broadcast_to(emb, (x.data.shape[0], emb.shape[1]))
        h = Tensor.concat([x, Tensor(emb)], axis=1)
        w, b = self.layers[0]
        h = (h @ w + b).tanh()
        for w, b in self.layers[1:]:
            block = (h @ w + b).tanh()
            h = h + block if self.residual else block
        w, b = self.out_layer
        return h @ w + b

    def __call__(self, x, lam) -> Tensor:
        return self.forward(x, lam)


class DenoiserNet:
    """v-prediction network v̂(z, λ).

    x̂ and ε̂ are recovered from v̂ through the variance-preserving identities
    x̂ = α z − σ v̂ and ε̂ = σ z + α v̂, so α x̂ + σ ε̂ = z holds exactly.
    """

    def __init__(self, d: int, width: int = 256, n_hidden: int = 2,
                 seed: int = 0, store: ParamStore | None = None):
        self.d = d
        self.width = width
        self.n_hidden = n_hidden
        self.store = store if store is not None else ParamStore()
        rng = np.random.default_rng(seed)
        self.net = MLP(self.store, "denoiser", d, d, width, n_hidden, rng,
                       residual=True, zero_output=True)
        self.calls = 0

    def forward(self, z: Tensor | np.ndarray, lam) -> Tensor:
        self.calls += 1
        z = Tensor.as_tensor(z)
        if z.data.ndim == 1:
            raise ValueError("1-D graph inputs are not supported; pass (B, d)")
        return self.net.forward(z, lam)

    def predict_v(self, z: np.ndarray, lam) -> np.ndarray:
        """Inference-mode v̂ for numpy input of shape (d,) or (B, d)."""
        z = np.asarray(z, dtype=np.float64)
        single = z.ndim == 1
        out = self.forward(z[None, :] if single else z, lam).data
        if not np.all(np.isfinite(out)):
            raise NumericsError("denoiser produced non-finite output")
        return out[0] if single else out

    def predict_x(self, z: np.ndarray, lam) -> np.ndarray:
        from .schedule import logistic
        a = np.sqrt(logistic(float(lam)))
        s = np.sqrt(logistic(-float(lam)))
        return a * np.asarray(z) - s * self.predict_v(z, lam)


class EncoderInnerNet:
    """Inner network y(x, λ) of the trainable encoder; zero at initialization."""

    def __init__(self, d: int, width: int = 128, n_hidden: int = 2,
                 seed: int = 1, store: ParamStore | None = None):
        self.d = d
        self.width = width
        self.n_hidden = n_hidden
        self.store = store if store is not None else ParamStore()
        rng = np.random.default_rng(seed)
        self.net = MLP(self.store, "encoder", d, d, width, n_hidden, rng,
                       residual=True, zero_output=True)

    def forward(self, x: Tensor | np.ndarray, lam) -> Tensor:
        x = Tensor.as_tensor(x)
        if x.data.ndim == 1:
            raise ValueError("1-D graph inputs are not supported; pass (B, d)")
        return self.net.forward(x, lam)

    def predict(self, x: np.ndarray, lam) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        out = self.forward(x[None, :] if single else x, lam).data
        return out[0] if single else out
