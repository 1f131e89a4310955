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
from .errors import ConfigError, NumericsError

N_FREQUENCIES = 8
# Geometric ladder topping out near omega = 2: the λ-derivative of the
# trainable encoder is estimated with a finite-difference step h = 1e-3 times
# the λ span (~0.018), and the ladder cap keeps that step's truncation error
# ((omega h)^2/6 per component) below the 1e-3 consistency budget.
_FREQ_BASE = 0.04
_FREQ_RATIO = 1.75
_FREQS = _FREQ_BASE * _FREQ_RATIO ** np.arange(N_FREQUENCIES)


def sinusoidal_embedding(lam) -> np.ndarray:
    """Map λ (scalar or (B,) array) to (B, 2·N_FREQUENCIES) sin/cos features."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    phases = lam[:, None] * _FREQS[None, :]
    out = np.empty((lam.size, 2 * N_FREQUENCIES))
    np.sin(phases, out=out[:, :N_FREQUENCIES])
    np.cos(phases, out=out[:, N_FREQUENCIES:])
    return out


# the storage slot behind Tensor.data, which Parameter's property shadows
_DATA_SLOT = Tensor.__dict__["data"]


class Parameter(Tensor):
    """Trainable leaf whose values are a view into its ParamStore's flat buffer.

    Assigning `.data` copies the new values into that view, so a parameter
    never drops out of the buffer that the optimizer and checkpoints read.
    """

    __slots__ = ()

    def __init__(self, data: np.ndarray, name: str):
        # Tensor.__init__ assigns .data through the property below, which
        # writes into the array already in the slot
        _DATA_SLOT.__set__(self, data)
        super().__init__(data, requires_grad=True, name=name)

    @property
    def data(self) -> np.ndarray:
        return _DATA_SLOT.__get__(self)

    @data.setter
    def data(self, value) -> None:
        view = _DATA_SLOT.__get__(self)
        value = np.asarray(value, dtype=np.float64)
        if value.shape != view.shape:
            raise ValueError(f"parameter '{self.name}' has shape {view.shape}; "
                             f"cannot assign shape {value.shape}")
        view[...] = value


def _views(flat: np.ndarray, layout: dict[str, tuple[slice, tuple]]) -> dict[str, np.ndarray]:
    return {name: flat[span].reshape(shape) for name, (span, shape) in layout.items()}


class ParamStore:
    """Named parameters, their optimizer moments, and the step counter.

    All parameter values live in one flat float64 buffer, `flat`, in the order
    they were added; each Parameter's data is a view of its span.  The Adam
    moments live in `m_flat` and `v_flat` with the same layout, and `m`/`v`
    map each name to its view, so the optimizer works on whole buffers.
    """

    def __init__(self):
        self.params: dict[str, Parameter] = {}
        self.step: int = 0
        self.flat = np.zeros(0)
        self.m_flat = np.zeros(0)
        self.v_flat = np.zeros(0)
        # name -> (span in the flat buffers, shape)
        self._layout: dict[str, tuple[slice, tuple]] = {}

    @property
    def m(self) -> dict[str, np.ndarray]:
        return self.views(self.m_flat)

    @property
    def v(self) -> dict[str, np.ndarray]:
        return self.views(self.v_flat)

    def add(self, name: str, value: np.ndarray) -> Parameter:
        return self.add_many({name: value})[name]

    def add_many(self, values: dict[str, np.ndarray]) -> dict[str, Parameter]:
        """Add parameters by name; the flat buffers are reallocated once for the group."""
        for name in values:
            if name in self.params:
                raise ValueError(f"duplicate parameter name '{name}'")
        layout = dict(self._layout)
        start = self.flat.size
        for name, value in values.items():
            layout[name] = (slice(start, start + np.size(value)), np.shape(value))
            start += np.size(value)
        flat = np.empty(start)
        flat[:self.flat.size] = self.flat
        views = _views(flat, layout)
        for name, value in values.items():
            views[name][...] = value
        # a non-finite value raises here, before the store changes
        added = {name: Parameter(views[name], name) for name in values}
        for name, param in self.params.items():
            _DATA_SLOT.__set__(param, views[name])
        self.params.update(added)
        self._layout = layout
        self.flat = flat
        self.m_flat = np.pad(self.m_flat, (0, start - self.m_flat.size))
        self.v_flat = np.pad(self.v_flat, (0, start - self.v_flat.size))
        return added

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's span of a buffer laid out like `flat`, in its shape."""
        return _views(flat, self._layout)

    def names(self) -> list[str]:
        return list(self.params.keys())

    def tensors(self) -> list[Tensor]:
        return list(self.params.values())

    def n_scalars(self) -> int:
        return self.flat.size

    def state_arrays(self) -> dict[str, np.ndarray]:
        """All arrays that must round-trip through a checkpoint, by name."""
        m, v = self.m, self.v
        out: dict[str, np.ndarray] = {}
        for name, t in self.params.items():
            out[f"param/{name}"] = t.data
            out[f"adam_m/{name}"] = m[name]
            out[f"adam_v/{name}"] = v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step: int) -> None:
        """Copy checkpoint arrays into the buffers; a missing or misshapen one is a ConfigError."""
        targets = self.state_arrays()
        for key, target in targets.items():
            if key not in arrays:
                raise ConfigError(f"checkpoint has no array '{key}'")
            source = np.asarray(arrays[key], dtype=np.float64)
            if source.shape != target.shape:
                raise ConfigError(f"checkpoint array '{key}' has shape {source.shape}, "
                                  f"the model expects {target.shape}")
        for key, target in targets.items():
            target[...] = arrays[key]
        self.step = step


def _linear_init(prefix: str, n_in: int, n_out: int, rng: np.random.Generator,
                 zero: bool = False) -> dict[str, np.ndarray]:
    if zero:
        w = np.zeros((n_in, n_out))
    else:
        w = rng.standard_normal((n_in, n_out)) / np.sqrt(n_in)
    return {f"{prefix}.w": w, f"{prefix}.b": np.zeros(n_out)}


class MLP:
    """tanh MLP with residual hidden blocks and a zero-initialized output layer.

    Input is [x, sinusoidal_embedding(λ)]; hidden layers all share one width so
    residual connections apply between consecutive hidden blocks.
    """

    def __init__(self, store: ParamStore, prefix: str, d_in: int, d_out: int,
                 width: int, n_hidden: int, rng: np.random.Generator):
        self.store = store
        self.prefix = prefix
        self.d_in = d_in
        self.d_out = d_out
        self.width = width
        self.n_hidden = n_hidden
        n_feat = d_in + 2 * N_FREQUENCIES
        layers = [f"{prefix}.in"] + [f"{prefix}.h{i}" for i in range(1, n_hidden)]
        values = _linear_init(layers[0], n_feat, width, rng)
        for layer in layers[1:]:
            values.update(_linear_init(layer, width, width, rng))
        values.update(_linear_init(f"{prefix}.out", width, d_out, rng, zero=True))
        params = store.add_many(values)
        self.layers: list[tuple[Tensor, Tensor]] = [
            (params[f"{layer}.w"], params[f"{layer}.b"]) for layer in layers]
        self.out_layer = (params[f"{prefix}.out.w"], params[f"{prefix}.out.b"])

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
            h = h + (h @ w + b).tanh()
        w, b = self.out_layer
        return h @ w + b


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
        self.net = MLP(self.store, "denoiser", d, d, width, n_hidden, rng)
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
        self.net = MLP(self.store, "encoder", d, d, width, n_hidden, rng)

    def forward(self, x: Tensor | np.ndarray, lam) -> Tensor:
        x = Tensor.as_tensor(x)
        if x.data.ndim == 1:
            raise ValueError("1-D graph inputs are not supported; pass (B, d)")
        return self.net.forward(x, lam)
