"""Span tracing for the benchmark's traced run.

Wrappers are installed from the benchmark's side around the public functions
and methods of each encdiff module; nothing in the package is edited.  Every
call through a wrapper opens a span (name, start, end, parent) on one stack.
A span's self time is its duration minus the durations of its child spans, so
self times of all spans under a root add up to the root's duration.

Aggregates are kept for every span, keyed by (phase, branch, name): the phase
is set by the benchmark (train, eval, sample, verify) and the branch is the
name of the span's ancestor one level below the phase's root span, which is
how work inside the training step is told apart from loss logging and
checkpoint writes in the same train() call.  Raw spans are kept in memory
only while `keep_spans` is set and are written out by `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

_PROCESS_FUNCS = ("transition_coefficients", "marginal", "forward_transition",
                  "reverse_posterior", "generative_mean", "weighting_penalty",
                  "kl_isotropic", "optimal_sigma_p")
_ENCODE_METHODS = ("encode", "encode_dlambda", "encode_t", "encode_dlambda_t")
_ENCODER_METHODS = {
    "IdentityEncoder": _ENCODE_METHODS,
    "NonTrainableEncoder": _ENCODE_METHODS,
    "TrainableEncoder": _ENCODE_METHODS + ("y_t", "dy_dlambda_t", "y", "dy_dlambda"),
}
VERIFY_FAMILIES = {
    "mc_kl_oracle": "mc_kl",
    "optimal_variance_grid_oracle": "optimal_variance_grid",
    "limit_convergence": "limit_convergence",
    "weighted_penalty_growth": "weighted_penalty",
    "optimal_penalty_decay": "optimal_penalty_decay",
    "sampler_moment_oracle": "sampler_moment",
    "sde_richardson_oracle": "sde_richardson",
    "fd_gradient_suite": "fd_gradient",
}


def _rows_of(value) -> int:
    data = getattr(value, "data", value)
    shape = getattr(data, "shape", ())
    return int(shape[0]) if len(shape) >= 1 else 1


# (module, attribute path, span name, rows argument index or None, probe tensors)
# The first part of a span name is the layer its self time is charged to.
TARGETS = (
    [
        ("schedule", "LogLinearSchedule.at", "schedule.at", None, False),
        ("autodiff", "grad", "autodiff.grad", None, True),
        ("autodiff", "Tensor.backward", "autodiff.backward", None, False),
        ("autodiff", "Tensor.reachable_ids", "autodiff.reachable_ids", None, False),
        ("nets", "DenoiserNet.forward", "nets.denoiser", 1, False),
        ("nets", "EncoderInnerNet.forward", "encoder.inner", 1, False),
        ("objective", "batch_vloss_graph", "objective.vloss", None, True),
        ("objective", "batch_latent_graph", "objective.latent", None, True),
        ("objective", "latent_loss", "objective.latent_loss", None, False),
        ("objective", "reconstruction_loss", "objective.reconstruction", None, False),
        ("objective", "elbo_bpd", "objective.eval", None, True),
        ("optim", "optimizer_step", "optim.step", None, True),
        ("checkpoint", "save", "checkpoint.save", None, False),
        ("checkpoint", "load", "checkpoint.load", None, False),
        ("data", "batches", "data.batch", None, False),
        ("data", "load_idx", "data.load", None, False),
        ("data", "synth_gaussian2d", "data.load", None, False),
        ("io_utils", "write_csv", "io_utils.write_csv", None, False),
        ("train", "train", "train.train", None, False),
        ("train", "build_model", "train.build_model", None, False),
        ("train", "restore", "train.restore", None, False),
        ("sampler", "ancestral_sample", "sampler.ancestral", None, True),
        ("sampler", "decode_pixels", "sampler.decode", None, False),
        ("verify", "run_all", "verify.run_all", None, False),
    ]
    + [("encoder", f"{cls}.{meth}", "encoder.encode", None, False)
       for cls, methods in _ENCODER_METHODS.items() for meth in methods]
    + [("process", name, "process." + name, None, False) for name in _PROCESS_FUNCS]
    + [("verify", name, "verify." + family, None, False)
       for name, family in VERIFY_FAMILIES.items()]
)


class Tracer:
    """Records spans on one stack and aggregates them by (phase, branch, name)."""

    def __init__(self, probe_tensor):
        # probe_tensor() builds one Tensor and returns its node id, so the
        # number of Tensors made inside a span is end - start - 1
        self._probe = probe_tensor
        self.phase = "setup"
        self.keep_spans = True
        self.spans: list[tuple] = []
        self.stats: dict[tuple, list] = {}
        # inclusive time of each branch's head spans, by (phase, branch)
        self.branch_s: dict[tuple, float] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # --- spans ----------------------------------------------------------

    def open(self, name: str, rows: int, probe: bool) -> list:
        self._next_id += 1
        depth = len(self._stack)
        branch = self._stack[1][3] if depth >= 2 else name
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, name, branch, rows,
                 self._probe() if probe else -1, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, parent, name, branch, rows, probe0, child_s, start = frame
        tensors = self._probe() - probe0 - 1 if probe0 >= 0 else 0
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][6] += duration
        if len(self._stack) <= 1:
            key = (self.phase, name)
            self.branch_s[key] = self.branch_s.get(key, 0.0) + duration
        entry = self.stats.setdefault((self.phase, branch, name), [0, 0.0, 0.0, 0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        entry[3] += rows
        entry[4] += tensors
        if self.keep_spans:
            self.spans.append((span_id, parent, name, self.phase, start, end))

    # --- wrappers -------------------------------------------------------

    def _wrap(self, fn, name: str, rows_arg, probe: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = _rows_of(args[rows_arg]) if rows_arg is not None else 0
            frame = tracer.open(name, rows, probe)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)

        return wrapper

    def _wrap_generator(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                # the span covers producing one item, never the consumer's work
                frame = tracer.open(name, 0, False)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(frame)
                yield item

        return wrapper

    def install(self) -> None:
        """Replace each target everywhere encdiff has bound it."""
        for module_name in {target[0] for target in TARGETS}:
            importlib.import_module(f"encdiff.{module_name}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "encdiff" or key.startswith("encdiff."))]
        for module_name, path, name, rows_arg, probe in TARGETS:
            module = sys.modules[f"encdiff.{module_name}"]
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if inspect.isgeneratorfunction(original):
                wrapped = self._wrap_generator(original, name)
            else:
                wrapped = self._wrap(original, name, rows_arg, probe)
            if owner_path:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            # module-level functions are also bound by `from .x import f` elsewhere
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- read-out -------------------------------------------------------

    def select(self, phase: str, names=None, prefix: str | None = None,
               branches=None) -> dict:
        """Sums of count, total_s, self_s, rows and tensors over matching spans."""
        out = {"count": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0, "tensors": 0}
        for (ph, branch, name), (count, total, self_s, rows, tensors) in self.stats.items():
            if ph != phase:
                continue
            if names is not None and name not in names:
                continue
            if prefix is not None and not name.startswith(prefix):
                continue
            if branches is not None and branch not in branches:
                continue
            out["count"] += count
            out["total_s"] += total
            out["self_s"] += self_s
            out["rows"] += rows
            out["tensors"] += tensors
        return out

    def layer_self_s(self, phase: str) -> dict:
        """Self time per layer (first part of the span name) within a phase."""
        layers: dict[str, float] = {}
        for (ph, _branch, name), entry in self.stats.items():
            if ph == phase:
                layer = name.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + entry[2]
        return layers

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            for span_id, parent, name, phase, start, end in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                    "phase": phase, "start_s": start, "end_s": end}) + "\n")
