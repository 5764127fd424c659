"""In-memory span recorder that wraps streamsynth's public functions.

Nothing in ``src/`` knows about it: :func:`install` replaces the public
functions and methods of ``tensor``, ``nn``, ``seqlm``, ``cfm``, ``rl``,
``latency`` and ``persist`` with timing wrappers, in every streamsynth module
that binds them, and the returned :class:`Installed` puts the originals back. Backward
passes are timed by wrapping the closure each primitive hands to
``Tape.record``, so every backward span is named after the primitive whose
forward recorded it.

A span is (name, start, end, parent, request). Spans live in flat arrays
until the run ends and :meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

from streamsynth import cfm, latency, nn, persist, rl, seqlm
from streamsynth import tensor as T

TENSOR_PRIMITIVES = (
    "add", "sub", "mul", "scale", "matmul", "activation", "relu", "silu", "tanh",
    "softplus", "softmax", "layer_norm", "embedding_lookup", "take_rows",
    "conv1d_right_padded", "cross_entropy_ignore", "masked_attention",
    "add_rowvec", "concat_cols", "slice_cols", "abs_val", "sum_all", "mean_all",
)
MODULE_FUNCTIONS = {
    seqlm: ("build_icl_prompt", "build_nonstream", "build_stream", "generate",
            "sequence_loss"),
    cfm: ("sample", "cfg_field", "training_step", "build_mask"),
    rl: ("sample_speech_guided", "asr_reward_step", "sequence_logprob", "dpo_loss",
         "gumbel_softmax_sample", "soft_decode", "train_asr_backend",
         "clone_frozen_lm"),
    latency: ("l_tts", "simulate"),
    persist: ("save_lm", "load_lm", "save_cfm", "load_cfm"),
    nn: ("param_fingerprint",),
}
METHODS = (
    (seqlm.ToyLM, "forward", "seqlm.forward"),
    (nn.Linear, "__call__", "nn.linear"),
    (nn.LayerNorm, "__call__", "nn.layer_norm"),
    (nn.TransformerBlock, "__call__", "nn.block"),
    (nn.Adam, "step", "nn.adam.step"),
    (T.Tape, "backward", "tensor.tape.backward"),
    (cfm.CfmModel, "token_conditions", "cfm.token_conditions"),
)


class Tracer:
    """Flat span store plus named counters; one per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.stack: list[int] = []
        self.request = -1
        self.paused = False
        self.counters: dict[str, float] = {}
        self.pending_matmul: tuple | None = None

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.req.append(self.request)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def innermost(self) -> str:
        return self.names[self.name[self.stack[-1]]] if self.stack else ""

    def summary(self, min_request: int = -1) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over spans of requests
        numbered ``min_request`` or above.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it because spans close in LIFO order.
        """
        if not self.start:
            return {}
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        keep = np.frombuffer(self.req, dtype=np.int32) >= min_request
        names, dur, self_time = names[keep], dur[keep], self_time[keep]
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int32),
            request=np.frombuffer(self.req, np.int32))


def _span(tracer: Tracer, name: str, fn, before=None):
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        if before is not None:
            before(args, kwargs)
        i = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    return traced


def _matmul_shapes(tracer: Tracer):
    def before(args, kwargs):
        a, b = args[0], args[1]
        if a.data.ndim != 2 or b.data.ndim != 2:
            return  # the primitive itself rejects these
        m, k = a.data.shape
        n = b.data.shape[1]
        tracer.count("tensor.matmul.flops", 2.0 * m * k * n)
        tracer.count("tensor.matmul.bytes", 8.0 * (m * k + k * n + m * n))
        tracer.pending_matmul = (m, k, n, a.requires_grad, b.requires_grad)
    return before


def _attention_pairs(tracer: Tracer):
    def before(args, kwargs):
        mask = args[3] if len(args) > 3 else kwargs["mask"]
        tracer.count("tensor.masked_attention.pairs", float(np.count_nonzero(mask)))
    return before


def _logits_rows(tracer: Tracer):
    def before(args, kwargs):
        tracer.count("seqlm.rows_computed", float(len(args[1])))
    return before


def _guided_tokens(tracer: Tracer):
    def before(args, kwargs):
        n = args[2] if len(args) > 2 else kwargs["n_tokens"]
        tracer.count("seqlm.tokens", float(n))
    return before


def _integrations(tracer: Tracer):
    def before(args, kwargs):
        # conditions computed for a whole integration, not inside a field call
        if not tracer.innermost().startswith("cfm.field"):
            tracer.count("cfm.integrations")
            tracer.count("cfm.frames_integrated", float(cfm.UPSAMPLE * len(args[1])))
    return before


def _field(tracer: Tracer, fn):
    cond = _span(tracer, "cfm.field", fn)
    uncond = _span(tracer, "cfm.field_uncond", fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return (uncond if kwargs.get("unconditional") else cond)(*args, **kwargs)

    return traced


def _record(tracer: Tracer, fn):
    """Wrap each recorded backward closure in a span named after its primitive."""

    @functools.wraps(fn)
    def record(tape, out, backward_fn):
        if tracer.paused:
            return fn(tape, out, backward_fn)
        owner = tracer.innermost()
        nid = tracer.intern(owner + ".bwd" if owner.startswith("tensor.")
                            else "tensor.other.bwd")
        flops = nbytes = 0.0
        if owner == "tensor.matmul" and tracer.pending_matmul is not None:
            m, k, n, a_grad, b_grad = tracer.pending_matmul
            tracer.pending_matmul = None
            flops = 2.0 * m * k * n * (int(a_grad) + int(b_grad))
            nbytes = 8.0 * ((m * n + k * n + m * k) * int(a_grad)
                            + (m * k + m * n + k * n) * int(b_grad))

        def timed_backward(g):
            i = tracer.open(nid)
            try:
                backward_fn(g)
            finally:
                tracer.close(i)
            if flops:
                tracer.count("tensor.matmul.flops", flops)
                tracer.count("tensor.matmul.bytes", nbytes)

        tracer.count("tensor.tape.nodes")

        return fn(tape, out, timed_backward)

    return record


class Installed:
    """Undo record for :func:`install`."""

    def __init__(self):
        self.module_attrs: list[tuple[object, str, object]] = []
        self.class_attrs: list[tuple[type, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.module_attrs):
            setattr(owner, attr, orig)
        for cls, attr, orig in reversed(self.class_attrs):
            setattr(cls, attr, orig)
        self.module_attrs.clear()
        self.class_attrs.clear()


def _rebind(installed: Installed, orig, wrapped) -> None:
    """Replace ``orig`` wherever a streamsynth module binds it by name."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("streamsynth"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                installed.module_attrs.append((mod, attr, orig))
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> Installed:
    installed = Installed()
    befores = {"matmul": _matmul_shapes(tracer),
               "masked_attention": _attention_pairs(tracer),
               "sample_speech_guided": _guided_tokens(tracer)}
    for name in TENSOR_PRIMITIVES:
        orig = getattr(T, name)
        _rebind(installed, orig, _span(tracer, f"tensor.{name}", orig, befores.get(name)))
    for mod, names in MODULE_FUNCTIONS.items():
        short = mod.__name__.rsplit(".", 1)[-1]
        for name in names:
            orig = getattr(mod, name)
            _rebind(installed, orig,
                    _span(tracer, f"{short}.{name}", orig, befores.get(name)))

    def patch(cls, attr, wrapped):
        installed.class_attrs.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    for cls, attr, name in METHODS:
        before = _integrations(tracer) if name == "cfm.token_conditions" else None
        patch(cls, attr, _span(tracer, name, cls.__dict__[attr], before))
    patch(seqlm.ToyLM, "logits_last",
          _span(tracer, "seqlm.logits_last", seqlm.ToyLM.__dict__["logits_last"],
                _logits_rows(tracer)))
    patch(cfm.CfmModel, "field", _field(tracer, cfm.CfmModel.__dict__["field"]))
    patch(T.Tape, "record", _record(tracer, T.Tape.__dict__["record"]))
    return installed
