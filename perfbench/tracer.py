"""Outside-in span tracer for the nlgotz layers.

The tracer wraps a fixed list of public functions of the library from the
outside, so the library itself is never edited.  Every call to a wrapped
function records one span (name, start, end, parent span, item id) into
flat arrays held in memory; `write` saves them when the pass ends and
`summary` turns them into per-layer calls, total and self times.

A function imported by name into another module (`from .macaulay import
upper_macaulay` in `graded`, `bounds`, `verify`, `cli`, and the package
`__init__`) is a second binding of the same object; `install` replaces every
such binding, or those calls would bypass the wrapper.  Private helpers
(`_kernel`, `_kernel_py`, `_substitution_matrix`, ...) are never wrapped:
they may be renamed or deleted by any change to the library, and a public
name that has disappeared is reported as absent rather than failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "nlgotz"

# (module, attribute path) of every wrapped public name, outermost layer last
TRACED = (
    ("macaulay", "macaulay_rep"),
    ("macaulay", "MacaulayRep.value"),
    ("macaulay", "upper_macaulay"),
    ("macaulay", "lower_macaulay"),
    ("macaulay", "growth_slack_check"),
    ("macaulay", "green_implication_scan"),
    ("modp", "rref"),
    ("modp", "matmul_mod"),
    ("monomials", "monomials"),
    ("monomials", "monomial_index"),
    ("monomials", "shift_table"),
    ("graded", "random_subspace"),
    ("graded", "multiply"),
    ("graded", "check_macaulay_gotzmann"),
    ("graded", "restrict_to_hyperplane"),
    ("graded", "is_basepoint_free"),
    ("graded", "koszul_middle_exact"),
    ("bounds", "nl_codim_floor"),
    ("bounds", "contradiction_trace"),
    ("verify", "run_suite"),
    ("verify", "consistency_sweep"),
    ("cli", "main"),
)

# spans of these names are renamed after the suite they run
_SUITE_LABELS = {
    "verify.run_suite": lambda args, kwargs: "verify." + str(args[0] if args else kwargs["name"]),
    "verify.consistency_sweep": lambda args, kwargs: "verify.consistency",
}


def _shape(mat) -> tuple[int, int]:
    shape = np.shape(mat)
    if len(shape) == 1:
        return 1, shape[0]
    return shape[0], shape[1]


class Tracer:
    """Span recorder plus the computed kernel counters at the `modp` boundary."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._item = [-1]
        self.absent: list[str] = []
        # every counter the probes below feed, so one never seen reads 0
        self.counters: dict[str, float] = dict.fromkeys(
            (
                "modp.rref.rows_sum",
                "modp.rref.cells_sum",
                "modp.rref.rank_sum",
                "modp.rref.cols_max",
                "modp.rref.mac_ops",
                "modp.rref.bytes",
                "modp.matmul_mod.mac_ops",
                "modp.matmul_mod.bytes",
                "graded.restrict_to_hyperplane.attempts",
            ),
            0,
        )
        # (function, rows, cols[, inner]) -> [seconds, calls]
        self.shape_time: dict[tuple, list] = {}

    def set_item(self, item: int) -> None:
        """Tag the spans that follow with this workload item id."""
        self._item[0] = item

    def _id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def _count(self, key: str, value: float) -> None:
        self.counters[key] += value

    def _probe_rref(self, args, kwargs, result, seconds: float) -> None:
        rows, cols = _shape(args[0] if args else kwargs["mat"])
        rank = int(result[1])
        self._count("modp.rref.rows_sum", rows)
        self._count("modp.rref.cells_sum", rows * cols)
        self._count("modp.rref.rank_sum", rank)
        self._count("modp.rref.mac_ops", rows * cols * rank)
        self._count("modp.rref.bytes", 8 * rows * cols)
        self.counters["modp.rref.cols_max"] = max(self.counters["modp.rref.cols_max"], cols)
        slot = self.shape_time.setdefault(("rref", rows, cols), [0.0, 0])
        slot[0] += seconds
        slot[1] += 1

    def _probe_matmul(self, args, kwargs, result, seconds: float) -> None:
        m, k = _shape(args[0] if args else kwargs["a"])
        n = _shape(args[1] if len(args) > 1 else kwargs["b"])[1]
        self._count("modp.matmul_mod.mac_ops", m * k * n)
        self._count("modp.matmul_mod.bytes", 8 * (m * k + k * n))
        slot = self.shape_time.setdefault(("matmul_mod", m, k, n), [0.0, 0])
        slot[0] += seconds
        slot[1] += 1

    def _probe_restrict(self, args, kwargs, result, seconds: float) -> None:
        self._count("graded.restrict_to_hyperplane.attempts", result.attempts)

    def _wrap(self, fn, name: str):
        name_id, parent, item = self.name_id, self.parent, self.item
        start, end, stack, cur = self.start, self.end, self._stack, self._item
        perf = time.perf_counter
        label = _SUITE_LABELS.get(name)
        probe = {
            "modp.rref": self._probe_rref,
            "modp.matmul_mod": self._probe_matmul,
            "graded.restrict_to_hyperplane": self._probe_restrict,
        }.get(name)
        fixed_id = self._id(name) if label is None else -1
        ident = self._id

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed_id if label is None else ident(label(args, kwargs)))
            parent.append(stack[-1])
            item.append(cur[0])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if probe is not None:
                probe(args, kwargs, result, t1 - t0)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every name in TRACED, and every module-level copy of it."""
        for module, path in TRACED:
            name = f"{module}.{path}"
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
                owner = mod
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name)
            setattr(owner, parts[-1], wrapper)
            if owner is not mod:
                continue
            for other in list(sys.modules.values()):
                other_name = getattr(other, "__name__", "")
                if other_name != PACKAGE and not other_name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapper)

    @property
    def span_count(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (all spans) and self_s (minus direct children)."""
        n = len(self.start)
        stats: dict[str, dict[str, float]] = {}
        if n == 0:
            return stats
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        for sid, name in enumerate(self.names):
            stats[name] = {
                "calls": int(calls[sid]),
                "total_s": float(total[sid]),
                "self_s": float(self_s[sid]),
            }
        return stats

    def shapes(self) -> list[list]:
        """Time per kernel shape: [function, shape, seconds, calls]."""
        return [[k[0], "x".join(map(str, k[1:])), sec, calls] for k, (sec, calls) in self.shape_time.items()]

    def write(self, path) -> None:
        """Save every span; names[name_id] is the span name, parent -1 is a root."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
