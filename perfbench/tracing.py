"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` wraps every public function of each layer module (and
the public methods of the classes defined there) and puts the wrapper both
in the defining module and in every ``srsqueeze`` module that bound the
function with ``from ... import``.  Each registered verification check is
wrapped as its own span, and a plain function passed to a wrapped call (a
quadrature integrand, say) is wrapped as a callback of the calling layer, so
that its time is charged to the layer whose code it is.

Spans are folded into per-name totals as they close (count, inclusive and
self time), so memory stays flat however long the run; while ``recording``
is set, raw spans (name, start, end, parent, op) are also kept and written
out at the end.  A span's self time is its duration minus the time covered
by its child spans.
"""

from __future__ import annotations

import inspect
import json
import sys
import types
from time import perf_counter_ns

import numpy as np

LAYERS = ("params", "bch", "fock", "wavefn", "kernels", "quadrature", "verify",
          "cli")
_ARITH = ("__mul__", "__rmul__", "__add__", "__matmul__")
# Fock builders that return a dense N x N operator, or build one to make a state.
DENSE = {"displacement", "displacement_exp", "squeeze_exp", "squeeze_factored",
         "squeeze_factored_reversed", "squeezed_annihilator", "ladder", "number",
         "position", "momentum", "su11_generators", "saturating_state"}
COUNTS = ("fock.state_batch.nodes", "fock.dense.bytes", "quadrature.nodes",
          "quadrature.used_nodes", "kernels.overlap_values.points",
          "wavefn.psi.points")


def _nbytes(result) -> int:
    for attr in ("entries", "amps"):
        arr = getattr(result, attr, None)
        if isinstance(arr, np.ndarray):
            return arr.nbytes
    if isinstance(result, tuple):
        return sum(_nbytes(x) for x in result)
    return result.nbytes if isinstance(result, np.ndarray) else 0


def _quad_nodes(counts, args, kwargs, result):
    """Nodes evaluated, and nodes whose values enter the returned estimate."""
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    if spec is None or not hasattr(result, "nodes_used"):
        return
    n = spec.order_or_nodes
    kind = spec.kind.value
    used = {"gauss-hermite": 2 * n, "tensor-gauss-hermite-2d": 4 * n * n,
            "monte-carlo": n}.get(kind, 0)
    counts["quadrature.nodes"] += result.nodes_used
    counts["quadrature.used_nodes"] += min(used, result.nodes_used)


def _counter_for(layer: str, name: str):
    if layer == "fock" and name == "saturating_state_batch":
        def count(counts, args, kwargs, result):
            counts["fock.state_batch.nodes"] += result.shape[1]
        return count
    if layer == "fock" and name in DENSE:
        def count(counts, args, kwargs, result):
            counts["fock.dense.bytes"] += _nbytes(result)
        return count
    if layer == "quadrature" and name in ("integrate_plane", "integrate_line"):
        return _quad_nodes
    if (layer, name) in (("kernels", "overlap_values"), ("wavefn", "psi")):
        key = f"{layer}.{name}.points"

        def count(counts, args, kwargs, result):
            counts[key] += np.size(result)
        return count
    return None


class Tracer:
    """Per-name span totals for one process; see the module docstring."""

    def __init__(self):
        # frame: [name, start_ns, child_ns, span_id, layer]
        self.stack = [["run", 0, 0, -1, "run"]]
        self.stats: dict[str, list] = {}     # name -> [count, incl_ns, self_ns]
        self.top: dict[str, list] = {}       # layer -> [calls entered from outside, incl_ns]
        self.counts: dict[str, float] = dict.fromkeys(COUNTS, 0)
        self.raw: list = []
        self.recording = False
        self.op_id = -1
        self._originals = []

    # -- spans ------------------------------------------------------------
    def _close(self, name, layer, frame, end):
        dur = end - frame[1]
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[2]
        parent = self.stack[-1]
        parent[2] += dur
        if parent[4] != layer:
            tp = self.top.get(layer)
            if tp is None:
                tp = self.top[layer] = [0, 0]
            tp[0] += 1
            tp[1] += dur
        if frame[3] >= 0:
            self.raw[frame[3]][2] = end

    def begin_op(self, op_id: int):
        self.op_id = op_id
        frame = ["op", perf_counter_ns(), 0, -1, "op"]
        if self.recording:
            frame[3] = len(self.raw)
            self.raw.append(["op", frame[1], 0, -1, op_id])
        self.stack.append(frame)

    def end_op(self):
        end = perf_counter_ns()
        frame = self.stack.pop()
        self._close("op", "op", frame, end)

    def wrap(self, name: str, layer: str, fn, counter=None):
        stack, counts = self.stack, self.counts

        def traced(*args, **kwargs):
            if any(type(a) is types.FunctionType for a in args):
                args = tuple(self._callback(a, stack[-1][4]) for a in args)
            if kwargs and any(type(v) is types.FunctionType for v in kwargs.values()):
                kwargs = {k: self._callback(v, stack[-1][4]) for k, v in kwargs.items()}
            frame = [name, perf_counter_ns(), 0, -1, layer]
            if self.recording:
                frame[3] = len(self.raw)
                self.raw.append([name, frame[1], 0, stack[-1][3], self.op_id])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self._close(name, layer, frame, end)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _callback(self, fn, layer):
        if type(fn) is not types.FunctionType or hasattr(fn, "__wrapped__"):
            return fn
        return self.wrap(f"{layer}.callback", layer, fn)

    # -- installation -----------------------------------------------------
    def install(self):
        """Wrap the public functions of every loaded layer module."""
        mods = {m: sys.modules[f"srsqueeze.{m}"] for m in LAYERS
                if f"srsqueeze.{m}" in sys.modules}
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[obj] = self.wrap(f"{layer}.{attr}", layer, obj,
                                              _counter_for(layer, attr))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._wrap_methods(layer, obj)
        for mod in [m for k, m in sys.modules.items()
                    if k == "srsqueeze" or k.startswith("srsqueeze.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])
        verify = mods.get("verify")
        if verify is not None:
            reg = verify._REGISTRY
            self._originals.append((reg, None, list(reg)))
            reg[:] = [(cid, self.wrap(f"verify.check.{cid}", "verify", fn))
                      for cid, fn in reg]

    def _wrap_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _ARITH:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(name, layer, obj))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, layer, obj.__func__)))

    def _set(self, owner, attr, value):
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._originals):
            if attr is None:
                owner[:] = value
            else:
                setattr(owner, attr, value)
        self._originals.clear()

    # -- output -----------------------------------------------------------
    def summary(self) -> dict:
        return {"stats": self.stats, "top": self.top, "counts": self.counts}

    def write_raw(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.raw:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op}) + "\n")


def merge(summaries) -> dict:
    """Sum several Tracer summaries (one per CLI child process)."""
    out = {"stats": {}, "top": {}, "counts": {}}
    for s in summaries:
        for key in ("stats", "top"):
            for name, vals in s[key].items():
                acc = out[key].setdefault(name, [0] * len(vals))
                for i, v in enumerate(vals):
                    acc[i] += v
        for name, v in s["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + v
    return out
