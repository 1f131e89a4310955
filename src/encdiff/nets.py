"""Desk-scale networks: a v-prediction denoiser and the encoder's inner network.

Both are small MLPs on the flattened input concatenated with a sinusoidal
embedding of the log-SNR λ (8 frequencies on a geometric ladder).  Output
layers are zero-initialized, so at initialization the denoiser predicts v̂ = 0
and the inner encoder network contributes nothing.

A value-mode call (`MLP.values`, the buffers form of `DenoiserNet.forward` and
`EncoderInnerNet.forward`) writes every array into buffers allocated once by
its caller.  Every inference call runs this way: `DenoiserNet.predict_v`,
`predict_x` and `predictor`, and evaluation's denoiser and inner-net passes.
A training-mode call (`MLP.forward`, and those two methods without buffers)
returns the output and a vector-Jacobian function with the composed
matmul/add/tanh graph's arithmetic in its order, so values and gradients
are bit-identical to that graph's.  Neither mode makes a Tensor.  Both run
one layer loop, `MLP._layers`, which checks each hidden layer's
pre-activation and the output, so also a non-finite input, and names the
layer.  Both take λ's embedding from the caller when it has one: the
trainable encoder's stacked pass embeds its λ rows once and the denoiser
reads the λ rows' part, so a block of rows is embedded once.  A Parameter
is a plain named view of its span of its ParamStore's flat buffer, and a
vector-Jacobian function gives the gradients in `MLP.params` order.

Conditioning is on λ rather than t throughout, which keeps all derivative
bookkeeping in a single variable.
"""

from __future__ import annotations

import numpy as np

from .autodiff import all_finite
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


class Parameter:
    """A named trainable array: a view of its span of its ParamStore's flat buffer.

    Assigning `.data` copies the new values into that view, so a parameter
    never drops out of the buffer that the optimizer and checkpoints read.
    """

    __slots__ = ("name", "_view")

    def __init__(self, view: np.ndarray, name: str):
        self.name = name
        self._view = view

    @property
    def data(self) -> np.ndarray:
        return self._view

    @data.setter
    def data(self, value) -> None:
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self._view.shape:
            raise ValueError(f"parameter '{self.name}' has shape {self._view.shape}; "
                             f"cannot assign shape {value.shape}")
        self._view[...] = value


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
            if not all_finite(views[name]):
                # before the store changes
                raise NumericsError(f"non-finite values in parameter '{name}'")
        added = {name: Parameter(views[name], name) for name in values}
        for name, param in self.params.items():
            param._view = views[name]
        self.params.update(added)
        self._layout = layout
        self.flat = flat
        self.m_flat = np.pad(self.m_flat, (0, start - self.m_flat.size))
        self.v_flat = np.pad(self.v_flat, (0, start - self.v_flat.size))
        return added

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's span of a buffer laid out like `flat`, in its shape."""
        return _views(flat, self._layout)

    def parameters(self) -> list[Parameter]:
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
        # (W_in, b_in, W_h1, b_h1, ..., W_out, b_out): the order of vjp's gradients
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

    def values(self, x: np.ndarray, lam, buffers: tuple,
               emb: np.ndarray | None = None) -> np.ndarray:
        """The forward pass's values for x (B, d_in) computed into the first B
        rows of `buffers` (from `buffers(rows)`, rows ≥ B); returns the output
        buffer's rows.  Bit-identical to `forward(x, lam)[0]`.  emb is
        sinusoidal_embedding(lam) when the caller has it already.
        """
        features, *rest = (b[:len(x)] for b in buffers)
        features[:, :self.d_in] = self._checked(x)
        features[:, self.d_in:] = sinusoidal_embedding(lam) if emb is None else emb
        return self._layers([p.data for p in self.params], features, buffers=rest)[1]

    def forward(self, x: np.ndarray, lam, emb: np.ndarray | None = None):
        """Training-mode forward pass of x (B, d_in), lam scalar or (B,): the
        output and vjp(g, need_gx), which maps the output's gradient g to the
        weights' and biases' gradients, in `params` order, and x's when
        need_gx is set (otherwise None), with the composed matmul/add/tanh
        graph's arithmetic in its order.  Neither makes a Tensor.  emb is
        sinusoidal_embedding(lam) when the caller has it already.
        """
        x = self._checked(x)
        if emb is None:
            emb = sinusoidal_embedding(lam)
        if emb.shape[0] == 1 and x.shape[0] > 1:
            emb = np.broadcast_to(emb, (x.shape[0], emb.shape[1]))
        data = [p.data for p in self.params]
        # per hidden layer: its input and its tanh output, which vjp reads
        saved: list[tuple[np.ndarray, np.ndarray]] = []
        h, out = self._layers(data, np.concatenate([x, emb], axis=1), saved)
        d_in = self.d_in

        def vjp(g: np.ndarray, need_gx: bool) -> tuple[list[np.ndarray], np.ndarray | None]:
            # x's gradient, then the parameters' in order
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
            return grads[1:], grads[0]

        return out, vjp


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

    def forward(self, z: np.ndarray, lam, buffers: tuple | None = None,
                emb: np.ndarray | None = None):
        """v̂(z, λ) and its vector-Jacobian function (`MLP.forward`), for
        training; with buffers from `buffers(rows)`, its values alone,
        computed into them, for every inference call.  emb is λ's embedding
        when the caller has it (encoder.Terms).

        Every denoiser evaluation is a call of this method, which is what the
        benchmark's span tracer (perfbench/tracer.py) counts as a model call.
        """
        self.calls += 1
        if buffers is None:
            return self.net.forward(z, lam, emb)
        return self.net.values(z, lam, buffers, emb)

    def buffers(self, rows: int) -> tuple[np.ndarray, ...]:
        """Arrays for the buffers form of `forward` on up to `rows` rows."""
        return self.net.buffers(rows)

    def predict_v(self, z: np.ndarray, lam) -> np.ndarray:
        """v̂ for numpy input of shape (d,) or (B, d), through the buffers form
        of `forward` into buffers of its own; makes no Tensor."""
        z2 = np.atleast_2d(z)
        out = self.forward(z2, lam, self.buffers(len(z2)))
        return out[0] if np.ndim(z) == 1 else out

    def predict_x(self, z: np.ndarray, lam) -> np.ndarray:
        return _x_from_v(np.asarray(z), self.predict_v(z, lam), lam)

    def predictor(self, rows: int):
        """x̂(z, λ) for (rows, d) latents z, making no Tensor.

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

    def forward(self, x: np.ndarray, lam, buffers: tuple | None = None,
                emb: np.ndarray | None = None):
        """y(x, λ) and its vector-Jacobian function (`MLP.forward`); with
        buffers from `buffers(rows)`, its values alone, computed into them.
        emb is λ's embedding when the caller has it already."""
        if buffers is None:
            return self.net.forward(x, lam, emb)
        return self.net.values(x, lam, buffers, emb)

    def buffers(self, rows: int) -> tuple[np.ndarray, ...]:
        """Arrays for the buffers form of `forward` on up to `rows` rows."""
        return self.net.buffers(rows)
