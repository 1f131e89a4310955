"""Desk-scale networks: a v-prediction denoiser and the encoder's inner network.

Both are small MLPs on the flattened input concatenated with a sinusoidal
embedding of the log-SNR λ (8 frequencies on a geometric ladder).  Output
layers are zero-initialized, so at initialization the denoiser predicts v̂ = 0
and the inner encoder network contributes nothing.

A value-mode call (`MLP.values`, the buffers form of `DenoiserNet.forward` and
`EncoderInnerNet.forward`) records nothing and writes every array into buffers
allocated once by its caller.  Every inference call runs this way:
`DenoiserNet.predict_v`, `predict_x` and `predictor`, and evaluation's
denoiser and inner-net passes.  A graph-mode call (`MLP.forward`) serves the
training losses alone: one node on the autodiff record, with a hand-written
backward that does the arithmetic of the composed matmul/add/tanh graph in the
same order, so values and gradients are bit-identical to that graph's.  An
array input is a constant that makes no Tensor.  Both run one layer loop,
`MLP._layers`, so their values are bit-identical; it checks each hidden
layer's pre-activation and the output, so also a non-finite input, and names
the layer.

Conditioning is on λ rather than t throughout, which keeps all derivative
bookkeeping in a single variable.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, all_finite
from .errors import ConfigError, NumericsError
from .schedule import point_from_lam

N_FREQUENCIES = 8
# hidden tanh layers per MLP: the input layer and one residual block
N_HIDDEN = 2
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
    map each name to its view, so the optimizer works on whole buffers.  Each
    accepted optimizer step replaces `m_flat` and `v_flat` with new arrays,
    so read the moments through the store, not through a held reference.
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
        """Copy checkpoint arrays into the buffers.

        A missing, misshapen or non-finite array is a ConfigError naming it,
        raised before anything is copied.
        """
        targets = self.state_arrays()
        for key, target in targets.items():
            if key not in arrays:
                raise ConfigError(f"checkpoint has no array '{key}'")
            source = np.asarray(arrays[key], dtype=np.float64)
            if source.shape != target.shape:
                raise ConfigError(f"checkpoint array '{key}' has shape {source.shape}, "
                                  f"the model expects {target.shape}")
            if not np.isfinite(source).all():
                raise ConfigError(f"checkpoint array '{key}' has non-finite values")
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

    Input is [x, sinusoidal_embedding(λ)] with x of size d_in, and the output
    has size d_in too; the N_HIDDEN hidden layers all share one width so
    residual connections apply between consecutive hidden blocks.
    """

    def __init__(self, store: ParamStore, prefix: str, d_in: int, width: int,
                 rng: np.random.Generator):
        self.prefix = prefix
        self.d_in = d_in
        n_feat = d_in + 2 * N_FREQUENCIES
        self.layer_names = [f"{prefix}.in"] + [f"{prefix}.h{i}" for i in range(1, N_HIDDEN)]
        values = _linear_init(self.layer_names[0], n_feat, width, rng)
        for layer in self.layer_names[1:]:
            values.update(_linear_init(layer, width, width, rng))
        values.update(_linear_init(f"{prefix}.out", width, d_in, rng, zero=True))
        params = store.add_many(values)
        # (W_in, b_in, W_h1, b_h1, ..., W_out, b_out): the order of the node's parents
        self.params: tuple[Parameter, ...] = tuple(params.values())

    def _layers(self, data: list[np.ndarray], h: np.ndarray, saved: list | None = None,
                buffers: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The MLP's arithmetic with parameter values data on input features h
        (B, d_in + 2·N_FREQUENCIES).

        Each hidden layer's pre-activation and the output are checked and
        named, and every hidden layer after the first adds its tanh output to
        its input.
        Returns the last hidden state and the output.  With buffers (pre, hidden,
        out) from `buffers`, every array is written into them; without, each is
        a new array, and `saved` collects each hidden layer's (input, tanh
        output) for the backward pass.
        """
        pre_buf, hidden, out = buffers if buffers is not None else (None, None, None)
        for k, name in enumerate(self.layer_names):
            pre = np.matmul(h, data[2 * k], out=pre_buf)
            np.add(pre, data[2 * k + 1], out=pre)
            if not all_finite(pre):
                raise NumericsError(f"non-finite values produced by layer '{name}'")
            if k == 0:
                y = h_next = np.tanh(pre, out=pre if hidden is None else hidden)
            else:
                y = np.tanh(pre, out=pre)
                h_next = np.add(h, y, out=hidden)
            if saved is not None:
                saved.append((h, y))
            h = h_next
        out = np.matmul(h, data[-2], out=out)
        np.add(out, data[-1], out=out)
        if not all_finite(out):
            raise NumericsError(f"non-finite values produced by layer '{self.prefix}.out'")
        return h, out

    def _checked(self, x) -> np.ndarray:
        """x as a float64 array, which must have shape (B, d_in)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise ValueError(f"expected input of shape (B, {self.d_in}), got {x.shape}")
        return x

    def buffers(self, rows: int) -> tuple[np.ndarray, ...]:
        """Arrays for `values` on `rows` input rows: the input features, one
        pre-activation, the hidden state and the output."""
        width = self.params[0].data.shape[1]
        return (np.empty((rows, self.d_in + 2 * N_FREQUENCIES)), np.empty((rows, width)),
                np.empty((rows, width)), np.empty((rows, self.d_in)))

    def values(self, x: np.ndarray, lam, buffers: tuple) -> np.ndarray:
        """The forward pass's values for x (B, d_in) computed into the first B
        rows of `buffers` (from `buffers(rows)`, rows ≥ B); records no node and
        returns the output buffer's rows.  Bit-identical to `forward(x, lam).data`.
        """
        features, *rest = (b[:len(x)] for b in buffers)
        features[:, :self.d_in] = self._checked(x)
        features[:, self.d_in:] = sinusoidal_embedding(lam)
        return self._layers([p.data for p in self.params], features, buffers=rest)[1]

    def forward(self, x: Tensor | np.ndarray, lam) -> Tensor:
        """Graph-mode forward pass; x is (B, d_in), lam scalar or (B,).

        Records one node whose parents are every weight and bias, and x if x is
        a node; an array x is a constant.  x gets a gradient only when it is on
        the record (made by an op or requiring a gradient).
        """
        node = x if isinstance(x, Tensor) else None
        x = self._checked(x if node is None else x.data)
        emb = sinusoidal_embedding(lam)
        if emb.shape[0] == 1 and x.shape[0] > 1:
            emb = np.broadcast_to(emb, (x.shape[0], emb.shape[1]))
        data = [p.data for p in self.params]
        # per hidden layer: its input and its tanh output, which backward reads
        saved: list[tuple[np.ndarray, np.ndarray]] = []
        h, out = self._layers(data, np.concatenate([x, emb], axis=1), saved)
        need_gx = node is not None and (node._backward is not None or node.requires_grad)
        d_in = self.d_in

        def backward(g):
            grads = [None] * (len(data) + 1)
            # output layer: b gets the rows' sum, W gets hᵀg, h gets g Wᵀ
            grads[-1] = g.sum(axis=0)
            grads[-2] = h.T @ g
            g = g @ data[-2].T
            for k in range(len(saved) - 1, -1, -1):
                h_in, y = saved[k]
                ga = g * (1.0 - y * y)
                grads[2 * k + 2] = ga.sum(axis=0)
                grads[2 * k + 1] = h_in.T @ ga
                if k > 0:
                    # the residual path's gradient comes first, then the layer's
                    g = g + ga @ data[2 * k].T
                elif need_gx:
                    grads[0] = (ga @ data[0].T)[:, :d_in]
            return grads[1:] if node is None else grads

        return Tensor(out, name=f"{self.prefix}.out", _op="mlp", _backward=backward,
                      _parents=self.params if node is None else (node, *self.params))


class DenoiserNet:
    """v-prediction network v̂(z, λ).

    x̂ and ε̂ are recovered from v̂ through the variance-preserving identities
    x̂ = α z − σ v̂ and ε̂ = σ z + α v̂, so α x̂ + σ ε̂ = z holds exactly.
    """

    z_independent = False

    def __init__(self, d: int, width: int, seed: int = 0, store: ParamStore | None = None):
        self.d = d
        self.store = store if store is not None else ParamStore()
        rng = np.random.default_rng(seed)
        self.net = MLP(self.store, "denoiser", d, width, rng)
        self.calls = 0

    def forward(self, z: Tensor | np.ndarray, lam, buffers: tuple | None = None
                ) -> Tensor | np.ndarray:
        """v̂(z, λ) as one recorded node, for training; with buffers from
        `buffers(rows)`, its values computed into them as an array, recording
        nothing.

        The buffers form serves every inference call.  It keeps every denoiser
        evaluation, recorded or not, a call of this method, which is what the
        benchmark's span tracer (perfbench/tracer.py) counts as a model call.
        """
        self.calls += 1
        if buffers is None:
            return self.net.forward(z, lam)
        return self.net.values(z, lam, buffers)

    def buffers(self, rows: int) -> tuple[np.ndarray, ...]:
        """Arrays for the buffers form of `forward` on up to `rows` rows."""
        return self.net.buffers(rows)

    def predict_v(self, z: np.ndarray, lam) -> np.ndarray:
        """v̂ for numpy input of shape (d,) or (B, d), through the buffers form
        of `forward` into buffers of its own; records nothing."""
        z2 = np.atleast_2d(z)
        out = self.forward(z2, lam, self.buffers(len(z2)))
        return out[0] if np.ndim(z) == 1 else out

    def predict_x(self, z: np.ndarray, lam) -> np.ndarray:
        return _x_from_v(np.asarray(z), self.predict_v(z, lam), lam)

    def predictor(self, rows: int):
        """x̂(z, λ) for (rows, d) latents z, recording no node.

        Every array of a call lives in buffers allocated here, once, and the
        result is the same array each call, overwritten by the next.  Its values
        are bit-identical to predict_x's.
        """
        buffers = self.buffers(rows)
        x_hat = np.empty((rows, self.d))

        def predict_x(z: np.ndarray, lam) -> np.ndarray:
            return _x_from_v(z, self.forward(z, lam, buffers), lam, out=x_hat)

        return predict_x


def _x_from_v(z: np.ndarray, v: np.ndarray, lam, out: np.ndarray | None = None) -> np.ndarray:
    """x̂ = α z − σ v̂ at log-SNR λ, into out if given; v is overwritten."""
    p = point_from_lam(float(lam))
    x_hat = np.multiply(z, p.alpha, out=out)
    return np.subtract(x_hat, np.multiply(v, p.sigma, out=v), out=x_hat)


class EncoderInnerNet:
    """Inner network y(x, λ) of the trainable encoder; zero at initialization."""

    def __init__(self, d: int, width: int, seed: int = 1, store: ParamStore | None = None):
        self.store = store if store is not None else ParamStore()
        rng = np.random.default_rng(seed)
        self.net = MLP(self.store, "encoder", d, width, rng)

    def forward(self, x: Tensor | np.ndarray, lam, buffers: tuple | None = None
                ) -> Tensor | np.ndarray:
        """y(x, λ) as one recorded node; with buffers from `buffers(rows)`, its
        values computed into them as an array, recording nothing."""
        if buffers is None:
            return self.net.forward(x, lam)
        return self.net.values(x, lam, buffers)

    def buffers(self, rows: int) -> tuple[np.ndarray, ...]:
        """Arrays for the buffers form of `forward` on up to `rows` rows."""
        return self.net.buffers(rows)
