"""Outside-in tracing of `lefschetz` for the benchmark's traced run.

`Tracer.install` replaces public functions and methods of the package with
wrappers that record a span (name, start, end, parent span, op id) around
each call, and count work at the same boundary.  Nothing in the package
changes; the wrappers are installed only in the traced run, so the
end-to-end figures are measured without them.

A wrapper records no span while a span that absorbs it is open.  That keeps
recursion and inner calls inside the span that owns them: the base-algebra
products an extension makes while it multiplies belong to the outer
`algebra.multiply`, the products `mult_map_matrix` makes column by column
belong to `algebra.mult_map`, and the mod-p rank inside the rational witness
belongs to `linalg.witness`.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

from lefschetz import algebra, certify, cli, linalg, report, specfile, theorems

# Layer metrics in a fixed order: (name, unit).  Counts and times are per round.
LAYER_METRICS = [
    ("algebra.mult_map.calls", "count"),
    ("algebra.mult_map.self_s", "s"),
    ("algebra.mult_map.entries", "count"),
    ("algebra.multiply.calls", "count"),
    ("algebra.multiply.self_s", "s"),
    ("algebra.quotient.calls", "count"),
    ("algebra.quotient.self_s", "s"),
    ("algebra.socle.self_s", "s"),
    ("certify.search.self_s", "s"),
    ("certify.search.trials", "count"),
    ("certify.element.self_s", "s"),
    ("certify.maxrank.self_s", "s"),
    ("certify.rank.calls", "count"),
    ("certify.rank.self_s", "s"),
    ("certify.rank.trivial", "count"),
    ("certify.rank.witness_full", "count"),
    ("certify.rank.exact_qq_small", "count"),
    ("certify.rank.exact_qq_deficient", "count"),
    ("certify.rank.modp", "count"),
    ("certify.rank.no_elimination", "count"),
    ("linalg.rank_modp.calls", "count"),
    ("linalg.rank_modp.self_s", "s"),
    ("linalg.matmul.calls", "count"),
    ("linalg.matmul.self_s", "s"),
    ("linalg.witness.calls", "count"),
    ("linalg.witness.self_s", "s"),
    ("linalg.rank_qq.calls", "count"),
    ("linalg.rank_qq.self_s", "s"),
    ("linalg.det.calls", "count"),
    ("linalg.det.self_s", "s"),
    ("linalg.max_dim", "count"),
    ("linalg.entries_eliminated", "count"),
    ("theorems.duality.self_s", "s"),
    ("theorems.cauchy.self_s", "s"),
    ("specfile.parse_build.self_s", "s"),
    ("report.emit.self_s", "s"),
    ("cli.self_s", "s"),
    ("op.self_s", "s"),
    ("trace.round_s", "s"),
    ("trace.first_round_s", "s"),
]

_MULTIPLY_ABSORBERS = ("algebra.multiply", "algebra.mult_map")


class Tracer:
    """Span recorder and counters for one traced run."""

    def __init__(self):
        self._cells: dict[str, list] = {}  # wrapper group -> [number of open absorbing spans]
        self._absorbs: dict[str, list] = {}  # span name -> cells of the groups it absorbs
        self._stack: list[list] = []  # [name, start, child seconds, index, parent index]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_dim = 0
        self.spans: list[tuple] = []  # (index, name, start, end, parent index, op id)
        self.keep_spans = True
        self._next_index = 0
        self.op_id = -1
        self._first_round = None  # (calls, counts, max_dim) when the first round ended
        self._rank_seen = None  # in an exact_rank call: {"witness": result, "elimination": span name}

    # -- spans ------------------------------------------------------------------

    def _enter(self, name: str) -> None:
        for cell in self._absorbs.get(name, ()):
            cell[0] += 1
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_index, parent])
        self._next_index += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, index, parent = self._stack.pop()
        for cell in self._absorbs.get(name, ()):
            cell[0] -= 1
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if self.keep_spans:
            self.spans.append((index, name, start, end, parent, self.op_id))

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation."""
        self.op_id = op_id
        self._enter("op")
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, fn, name, absorbed_by=(), after=None):
        group = name if isinstance(name, str) else fn.__qualname__
        blocked = self._cells.get(group)
        if blocked is None:
            blocked = self._cells[group] = [0]
            for absorber in absorbed_by:
                self._absorbs.setdefault(absorber, []).append(blocked)

        def wrapper(*args, **kwargs):
            if blocked[0]:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            if span_name is None:
                return fn(*args, **kwargs)
            self._enter(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def end_first_round(self) -> None:
        """Keep no more spans, and fix the counts at those of the first round:
        later rounds draw other inputs, and their number depends on speed."""
        self.keep_spans = False
        self._first_round = (Counter(self.calls), Counter(self.counts), self.max_dim)

    # -- installation ------------------------------------------------------------

    def _patch_function(self, module, attr, **wrap_args):
        """Replace a module-level function everywhere the package bound it."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, **wrap_args)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "lefschetz" or mod_name.startswith("lefschetz."):
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, **wrap_args):
        setattr(cls, attr, self._wrap(cls.__dict__[attr], **wrap_args))

    def install(self) -> "Tracer":
        A, C, L = algebra, certify, linalg

        def mult_map_after(args, m):
            self.counts["algebra.mult_map.entries"] += m.nrows * m.ncols

        for cls in (A.GradedAlgebra, A.QuotientAlgebra):
            self._patch_method(cls, "mult_map_matrix", name="algebra.mult_map",
                               absorbed_by=("algebra.mult_map",), after=mult_map_after)
        for cls in (A.TrivialAlgebra, A.ExtensionAlgebra, A.QuotientAlgebra):
            self._patch_method(cls, "multiply", name="algebra.multiply", absorbed_by=_MULTIPLY_ABSORBERS)
        for attr in ("__mul__", "__pow__"):
            self._patch_method(A.HomogeneousElement, attr, name="algebra.multiply",
                               absorbed_by=_MULTIPLY_ABSORBERS)
        self._patch_method(A.QuotientAlgebra, "__init__", name="algebra.quotient")
        self._patch_method(A.GradedAlgebra, "socle_dimensions", name="algebra.socle")

        def search_after(args, rep):
            self.counts["certify.search.trials"] += rep.trials_used

        for attr in ("search_strong", "search_weak"):
            self._patch_function(C, attr, name="certify.search", after=search_after)
        self._patch_function(C, "certify_element", name="certify.element")
        self._patch_function(C, "maximal_rank_property", name="certify.maxrank")

        def rank_name(args):
            m = args[0]
            if min(m.nrows, m.ncols) <= 1:
                # Counted but not timed: these cost less than a span does.
                self.calls["certify.rank"] += 1
                self.counts["certify.rank.trivial"] += 1
                return None
            self._rank_seen = {}
            return "certify.rank"

        def rank_after(args, rank):
            self.counts[f"certify.rank.{_rank_path(args[0], self._rank_seen)}"] += 1
            self._rank_seen = None

        self._patch_function(C, "exact_rank", name=rank_name, after=rank_after)

        def note_shape(m):
            self.max_dim = max(self.max_dim, m.nrows, m.ncols)

        def eliminated(args, result):
            m = args[0]
            note_shape(m)
            self.counts["linalg.entries_eliminated"] += m.nrows * m.ncols

        def witness_after(args, result):
            eliminated(args, result)
            if self._rank_seen is not None:
                self._rank_seen["witness"] = result

        def rref_name(args):
            m = args[0]
            if m._rref_cache is not None or not (m.nrows and m.ncols):
                return None  # cached or empty: no elimination runs
            name = "linalg.rank_qq" if m.field.char == 0 else "linalg.rank_modp"
            if self._rank_seen is not None:
                self._rank_seen["elimination"] = name
            return name

        self._patch_method(L.Matrix, "rref", name=rref_name, absorbed_by=("linalg.witness",), after=eliminated)
        self._patch_method(L.Matrix, "det", name="linalg.det", after=eliminated)
        self._patch_method(L.Matrix, "__matmul__", name="linalg.matmul",
                           after=lambda args, m: (note_shape(args[0]), note_shape(m)))
        self._patch_function(L, "modular_rank_lower_bound", name="linalg.witness", after=witness_after)

        self._patch_function(theorems, "verify_duality_instance", name="theorems.duality")
        self._patch_function(theorems, "s_matrix_nonsingular", name="theorems.cauchy")
        self._patch_function(specfile, "parse_spec", name="specfile.parse_build")
        self._patch_method(specfile.AlgebraSpec, "build", name="specfile.parse_build")
        self._patch_function(report, "emit_report", name="report.emit")
        self._patch_function(cli, "main", name="cli")
        return self

    # -- results ------------------------------------------------------------------

    def metrics(self, rounds: int, round_s: float, first_round_s: float) -> dict:
        """Layer metrics in LAYER_METRICS order, as {name: {value, unit}}:
        counts of the first round, and seconds per round over all rounds."""
        calls, counts, max_dim = self._first_round
        out = {}
        for metric, unit in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if metric == "linalg.max_dim":
                value = max_dim
            elif metric == "trace.round_s":
                value = round_s
            elif metric == "trace.first_round_s":
                value = first_round_s
            elif kind == "self_s":
                value = self.self_s[layer] / rounds
            elif kind == "calls":
                value = calls[layer]
            else:
                value = counts[metric]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        """Kept spans as tab-separated lines in start order; parent -1 is a root."""
        spans = sorted(self.spans)
        t0 = spans[0][2] if spans else 0.0
        with open(path, "w") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\top\n")
            for index, name, start, end, parent, op_id in spans:
                out.write(f"{index}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{op_id}\n")


def _rank_path(m, seen: dict) -> str:
    """Which way an `exact_rank` call went, from what the wrappers saw in it:
    whether the rational witness ran and what it returned, and which
    elimination followed."""
    elimination = seen.get("elimination")
    if elimination == "linalg.rank_modp":
        return "modp"
    if "witness" not in seen:
        return "exact_qq_small" if elimination else "no_elimination"
    if elimination:
        return "exact_qq_deficient"  # the witness did not certify full rank
    return "witness_full" if seen["witness"] == min(m.nrows, m.ncols) else "no_elimination"
