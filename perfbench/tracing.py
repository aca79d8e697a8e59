"""Span tracing of muculants' public functions, installed from outside the package.

Modules import each other's functions by name (``inference`` does
``from .charfn import empirical_charfn``), so wrapping a function in its home
module alone would miss most calls.  ``Tracer.install`` therefore replaces the
original object wherever a ``muculants`` module namespace holds it, which is
where callers look it up at call time.  ``<Class>.validate`` stands for the
dataclass ``__post_init__``, which the generated ``__init__`` looks up on the
class.

Each span records name, start, end, parent span and operation id.  Spans stay
in memory until ``save``; self time is a span's duration minus the durations of
its direct children, so the self times of one operation sum to its wall time.
"""

import importlib
import sys
import time

import numpy as np

# Public functions per module, as layer metrics name them.
WRAPPED = {
    "inference": ("poisson_test", "estimate_muculants", "poisson_statistic", "grid_for_samples"),
    "charfn": (
        "empirical_charfn",
        "eval_charfn",
        "grid_synthesis",
        "grid_analysis",
        "complex_log",
        "unwrap_phase",
        "CharFnSamples.validate",
        "LogCharFnSamples.validate",
    ),
    "transform": (
        "complex_muculants",
        "power_muculants",
        "recursive_minphase_muculants",
        "reconstruct_charfn",
        "reconstruct_sequence",
        "cumulants_from_muculants",
        "MuculantSeq.validate",
    ),
    "pmf": ("validate_pmf", "convolve", "is_minimum_phase", "PMF.validate"),
    "zoo": ("zoo_pmf", "zoo_muculants", "zoo_cumulants", "parse_spec"),
    "decompose": ("decompose", "minphase_from_power"),
    "io": ("read_samples", "read_json", "dumps_json", "flat_csv", "indexed_csv"),
    "cli": ("main",),
}

LAYER_NAMES = tuple(f"{mod}.{name}" for mod, names in WRAPPED.items() for name in names)


def _grid_points(args, kwargs):
    grid = kwargs["grid"] if "grid" in kwargs else args[2]
    return grid.n_points


def _analysis_points(args, kwargs):
    return len(kwargs["values"] if "values" in kwargs else args[0])


# FFT sizes, computed from the arguments of the two grid transforms.
_FFT_POINTS = {"charfn.grid_synthesis": _grid_points, "charfn.grid_analysis": _analysis_points}


class Tracer:
    """Records spans for the wrapped functions while installed."""

    ROOT = "op"  # the span the harness opens around each operation

    def __init__(self):
        self.names = [self.ROOT, *LAYER_NAMES]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self.op_id = []
        self.fft_points = 0
        self._stack = [-1]
        self._op = -1
        self._restore = []

    # -- span recording -------------------------------------------------
    def _open(self, name_id):
        i = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op):
        self._op = op
        return self._open(0)

    def end_op(self, span):
        self._close(span)
        self._op = -1

    def _wrap(self, fn, name):
        name_id = self._ids[name]
        points = _FFT_POINTS.get(name)

        def traced(*args, **kwargs):
            if points is not None and self._op >= 0:
                self.fft_points += points(args, kwargs)
            span = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- installation -----------------------------------------------------
    def install(self):
        """Wrap every listed function in every loaded muculants namespace."""
        for mod_name in WRAPPED:
            importlib.import_module(f"muculants.{mod_name}")
        namespaces = [
            m for key, m in sys.modules.items() if key == "muculants" or key.startswith("muculants.")
        ]
        for mod_name, names in WRAPPED.items():
            home = sys.modules[f"muculants.{mod_name}"]
            for name in names:
                full = f"{mod_name}.{name}"
                if name.endswith(".validate"):
                    cls = getattr(home, name.split(".")[0])
                    orig = cls.__dict__["__post_init__"]
                    self._restore.append((cls, "__post_init__", orig))
                    setattr(cls, "__post_init__", self._wrap(orig, full))
                    continue
                orig = getattr(home, name)
                wrapper = self._wrap(orig, full)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._restore.append((ns, attr, orig))
                            setattr(ns, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis -----------------------------------------------------------
    def arrays(self):
        return (
            np.asarray(self.name_id, dtype=np.int32),
            np.asarray(self.start),
            np.asarray(self.end),
            np.asarray(self.parent, dtype=np.int64),
            np.asarray(self.op_id, dtype=np.int32),
        )

    def save(self, path):
        name_id, start, end, parent, op_id = self.arrays()
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
            op_id=op_id,
        )

    def summary(self, n_ops, traced_wall_s):
        """Per-name calls and self milliseconds per operation.

        Only spans inside operations count.  ``accounted_share`` is the sum
        of all self times (the root span's self time is the unwrapped
        remainder) over the operations' wall time as the harness timed it.
        """
        name_id, start, end, parent, op_id = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        inside = op_id >= 0
        self_time = (dur - child)[inside]
        ids = name_id[inside]
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=self_time, minlength=len(self.names))
        layers = {
            name: {"calls_per_op": calls[i] / n_ops, "self_ms_per_op": 1e3 * self_s[i] / n_ops}
            for i, name in enumerate(self.names)
        }
        return layers, {
            "accounted_share": float(self_s.sum()) / traced_wall_s,
            "spans": int(inside.sum()),
        }
