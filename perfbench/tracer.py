"""Spans around calls into the program's layers, recorded from outside it.

The tracer replaces public functions and methods of ``ncresidue`` with
timing wrappers.  A function is wrapped by name through its module
attribute, and every other module-level binding of the same object inside
the package (``from .weakl1 import estimate_slope`` and the package
re-exports) is replaced too, because the library looks those names up at
call time.  A name that no longer exists is recorded as absent, with the
reason, and tracing goes on without it.

Each span records its name, start, end, parent span, thread id and one
optional count (classes in a chunk, matrix dimension, ...).  Spans are kept
in memory; ``write`` stores them when the benchmark ends.  A span opened in
a worker thread with no open span of its own is attributed to the innermost
open call span of the main thread, which is the call that handed it the
work.  Generator steps are never parents: a chunk is yielded after its step
span has closed.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, TID, COUNT, KIND = range(7)


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


# layer, module, attribute path, kind ("call" or "gen"), count of one span
TARGETS = (
    ("groups.dual_chunks", "groups", "Torus.dual_chunks", "gen", None),
    ("groups.dual_chunks", "groups", "SU2.dual_chunks", "gen", None),
    ("groups.haar_quadrature", "groups", "Torus.haar_quadrature", "call", None),
    ("groups.haar_quadrature", "groups", "SU2.haar_quadrature", "call", None),
    ("symbols.eval", "symbols", "MatrixSymbol.radial_profile", "call", None),
    ("symbols.eval", "symbols", "MatrixSymbol.diagonal", "call", None),
    ("symbols.eval", "symbols", "MatrixSymbol.evaluate", "call", None),
    ("symbols.construct", "symbols", "scalar_symbol", "call", None),
    ("symbols.construct", "symbols", "weight_power_symbol", "call", None),
    ("symbols.construct", "symbols", "diagonal_symbol", "call", None),
    ("symbols.construct", "symbols", "diag_signed_symbol", "call", None),
    ("symbols.construct", "symbols", "dense_symbol", "call", None),
    ("symbols.construct", "symbols", "scale_symbol", "call", None),
    ("symbols.construct", "symbols", "invariant_field", "call", None),
    ("symbols.construct", "symbols", "modulated_field", "call", None),
    ("matcalc.parts", "matcalc", "real_part", "call", None),
    ("matcalc.parts", "matcalc", "imag_part", "call", None),
    ("matcalc.eig", "matcalc", "hermitian_eigenvalues", "call",
     lambda a, k, r: len(_arg(a, k, 0, "h"))),
    ("matcalc.eig", "matcalc", "hermitian_eig", "call",
     lambda a, k, r: len(_arg(a, k, 0, "h"))),
    ("dualsum.annulus_sums", "dualsum", "annulus_sums", "call",
     lambda a, k, r: len(_arg(a, k, 1, "schedule"))),
    ("dualsum.cumulative_sums", "dualsum", "cumulative_sums", "call", None),
    ("weakl1.sum_series", "weakl1", "sum_series", "call", None),
    ("weakl1.estimate_slope", "weakl1", "estimate_slope", "call", None),
    ("zeta.zeta_trace", "zeta", "zeta_trace", "call", lambda a, k, r: r.truncation_cutoff),
    ("zeta.zeta_residue", "zeta", "zeta_residue", "call", None),
    ("residue.frozen_residue", "residue", "frozen_residue", "call", None),
    ("residue.wodzicki_residue", "residue", "wodzicki_residue", "call",
     lambda a, k, r: len(r.per_node)),
    ("cli.parse_config", "cli", "parse_config", "call", None),
    ("cli.render_json", "cli", "render_json", "call", lambda a, k, r: len(r)),
    ("cli.run_task", "cli", "run_task", "call", None),
    ("cli.threads_from_environment", "cli", "threads_from_environment", "call",
     lambda a, k, r: r),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        # (time, group name, lo, hi) per dual_chunks call, for the unique ratio
        self.enumerations: list[tuple] = []
        self.absent: dict[str, str] = {}
        self._stacks: dict[int, list] = {}
        self._main = threading.main_thread().ident
        self._undo: list = []
        self._traced_layers: set[str] = set()

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, kind: str = "call") -> list:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        elif tid != self._main:
            parent = self._main_caller()
        else:
            parent = None
        rec = [name, time.perf_counter(), math.nan, parent, tid, None, kind]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stacks[rec[TID]].pop()

    def _main_caller(self):
        for rec in reversed(list(self._stacks.get(self._main, ()))):
            if rec[KIND] == "call":
                return rec
        return None

    # -- wrapping ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target; missing names are recorded in ``absent``."""
        for layer, module_name, path, kind, count in TARGETS:
            owner = getattr(package, module_name, None)
            if owner is None:
                self._missing(layer, f"ncresidue has no module {module_name!r}")
                continue
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if not callable(original):
                self._missing(layer, f"ncresidue.{module_name}.{path} is missing")
                continue
            if kind == "gen":
                wrapper = self._gen_wrapper(layer, original)
            else:
                wrapper = self._call_wrapper(layer, original, count)
            self._traced_layers.add(layer)
            if len(parts) > 1:
                self._set(owner, parts[-1], wrapper)
            else:
                for mod in _package_modules(package):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
        for layer in self._traced_layers & set(self.absent):
            del self.absent[layer]  # another target of the layer is traced

    def _missing(self, layer: str, reason: str) -> None:
        if layer not in self._traced_layers:
            self.absent.setdefault(layer, reason)

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old, had in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def _call_wrapper(self, layer, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            if count is not None:
                try:
                    rec[COUNT] = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    tracer.absent.setdefault(f"{layer}.count", f"{type(exc).__name__}: {exc}")
            return result

        return wrapper

    def _gen_wrapper(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                group, lo, hi = args[0].name, float(args[1]), float(args[2])
            except (AttributeError, IndexError, TypeError, ValueError) as exc:
                tracer.absent.setdefault("groups.unique_ratio", f"{type(exc).__name__}: {exc}")
            else:
                tracer.enumerations.append((time.perf_counter(), group, lo, hi))
            steps = fn(*args, **kwargs)
            while True:
                rec = tracer.begin(layer, "gen")
                try:
                    chunk = next(steps)
                except StopIteration:
                    return
                finally:
                    tracer.end(rec)
                rec[COUNT] = len(chunk)
                yield chunk

        return wrapper

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                parent = ids.get(id(rec[PARENT])) if rec[PARENT] is not None else None
                fh.write(json.dumps([i, rec[NAME], rec[START], rec[END], parent, rec[TID], rec[COUNT]]))
                fh.write("\n")


def _package_modules(package):
    prefix = package.__name__
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))]


# -- per-layer metrics -----------------------------------------------------------


def _merged(intervals):
    """Disjoint intervals covering the union of the given ones, in order."""
    cur = None
    for lo, hi in sorted(intervals):
        if cur is not None and lo <= cur[1]:
            cur[1] = max(cur[1], hi)
            continue
        if cur is not None:
            yield cur
        cur = [lo, hi]
    if cur is not None:
        yield cur


def _union(intervals) -> float:
    return float(sum(hi - lo for lo, hi in _merged(intervals)))


def _lattice_count(n: int, r2max: int) -> int:
    """Number of points of Z^n with |x|^2 <= r2max."""
    if r2max < 0:
        return 0
    k = math.isqrt(r2max)
    if n == 1:
        return 2 * k + 1
    total = 0
    for x1 in range(-k, k + 1):
        total += _lattice_count(n - 1, r2max - x1 * x1)
    return total


def _classes_between(group: str, lo: float, hi: float) -> int:
    """Dual classes with lo < weight <= hi, counted without the program."""
    if group == "SU2":
        return max(0, math.floor(hi) - math.floor(lo))
    n = int(group[1:])
    # weight**2 = 1 + |xi|^2 is an integer q; lo**2 < q <= hi**2
    return _lattice_count(n, math.floor(hi * hi) - 1) - _lattice_count(n, math.floor(lo * lo) - 1)


def distinct_classes(enumerations) -> int:
    """Classes in the union of the enumerated annuli, per group."""
    by_group = defaultdict(list)
    for _, group, lo, hi in enumerations:
        by_group[group].append((lo, hi))
    return sum(
        _classes_between(group, lo, hi)
        for group, intervals in by_group.items()
        for lo, hi in _merged(intervals)
    )


# metric name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "groups.dual_chunks.busy_s": "s",
    "groups.dual_chunks.classes": "count",
    "groups.dual_chunks.chunks": "count",
    "groups.unique_ratio": "ratio",
    "groups.haar_quadrature.busy_s": "s",
    "symbols.eval.busy_s": "s",
    "symbols.eval.calls": "count",
    "symbols.construct.busy_s": "s",
    "dualsum.annulus_sums.self_s": "s",
    "dualsum.annulus_sums.calls": "count",
    "dualsum.annuli": "count",
    "dualsum.cumulative_sums.busy_s": "s",
    "matcalc.eig.busy_s": "s",
    "matcalc.eig.calls": "count",
    "matcalc.eig.d3_sum": "count",
    "matcalc.parts.busy_s": "s",
    "zeta.zeta_trace.self_s": "s",
    "zeta.zeta_trace.calls": "count",
    "zeta.classes": "count",
    "zeta.max_cutoff": "weight",
    "zeta.zeta_residue.self_s": "s",
    "weakl1.estimate_slope.busy_s": "s",
    "weakl1.sum_series.self_s": "s",
    "residue.frozen_residue.calls": "count",
    "residue.nodes": "count",
    "residue.wodzicki_residue.self_s": "s",
    "cli.parse_config.busy_s": "s",
    "cli.render_json.busy_s": "s",
    "cli.report_bytes": "bytes",
    "cli.run_task.self_s": "s",
    "cli.threads": "count",
    "trace.solve_s": "s",
    "trace.overhead_frac": "ratio",
}

# metric -> the traced layer (or layer count) it is read from
_SOURCES = {
    "groups.unique_ratio": "groups.dual_chunks",
    "dualsum.annuli": "dualsum.annulus_sums.count",
    "matcalc.eig.d3_sum": "matcalc.eig.count",
    "zeta.classes": "groups.dual_chunks",
    "zeta.max_cutoff": "zeta.zeta_trace.count",
    "residue.nodes": "residue.wodzicki_residue.count",
    "cli.report_bytes": "cli.render_json.count",
    "cli.threads": "cli.threads_from_environment.count",
}


def metric_source(metric: str) -> str:
    if metric in _SOURCES:
        return _SOURCES[metric]
    return metric.rsplit(".", 1)[0]


def absent_metrics(absent: dict) -> dict:
    """Metric -> reason, for every metric whose layer or count is untraced."""
    out = {}
    for metric in LAYER_METRICS:
        source = metric_source(metric)
        layer = source[: -len(".count")] if source.endswith(".count") else source
        reason = absent.get(metric) or absent.get(layer) or absent.get(source)
        if reason:
            out[metric] = reason
    return out


def window_metrics(spans, enumerations, t0: float, t1: float) -> dict:
    """Per-layer metrics over the spans that start inside [t0, t1]."""
    spans = [rec for rec in spans if t0 <= rec[START] <= t1]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for rec in spans:
        by_name[rec[NAME]].append(rec)
        if rec[PARENT] is not None:
            children[id(rec[PARENT])].append(rec)

    def busy(layer):
        return _union((r[START], r[END]) for r in by_name[layer])

    def outermost(layer):
        return [r for r in by_name[layer] if r[PARENT] is None or r[PARENT][NAME] != layer]

    def self_time(layer):
        total = 0.0
        for r in by_name[layer]:
            covered = _union(
                (max(c[START], r[START]), min(c[END], r[END])) for c in children[id(r)]
                if c[END] > r[START] and c[START] < r[END]
            )
            total += (r[END] - r[START]) - covered
        return total

    def count_sum(layer):
        return float(sum(r[COUNT] for r in outermost(layer) if r[COUNT] is not None))

    def under(rec, layer):
        p = rec[PARENT]
        while p is not None:
            if p[NAME] == layer:
                return True
            p = p[PARENT]
        return False

    chunks = by_name["groups.dual_chunks"]
    classes = count_sum("groups.dual_chunks")
    enums = [e for e in enumerations if t0 <= e[0] <= t1]
    distinct = distinct_classes(enums)
    eig_dims = [r[COUNT] for r in outermost("matcalc.eig") if r[COUNT] is not None]
    cutoffs = [r[COUNT] for r in by_name["zeta.zeta_trace"] if r[COUNT] is not None]
    threads = [r[COUNT] for r in by_name["cli.threads_from_environment"] if r[COUNT] is not None]
    return {
        "groups.dual_chunks.busy_s": busy("groups.dual_chunks"),
        "groups.dual_chunks.classes": classes,
        "groups.dual_chunks.chunks": float(sum(1 for r in chunks if r[COUNT] is not None)),
        # 1 when nothing was enumerated: no work was wasted
        "groups.unique_ratio": distinct / classes if classes else 1.0,
        "groups.haar_quadrature.busy_s": busy("groups.haar_quadrature"),
        "symbols.eval.busy_s": busy("symbols.eval"),
        "symbols.eval.calls": float(len(outermost("symbols.eval"))),
        "symbols.construct.busy_s": busy("symbols.construct"),
        "dualsum.annulus_sums.self_s": self_time("dualsum.annulus_sums"),
        "dualsum.annulus_sums.calls": float(len(outermost("dualsum.annulus_sums"))),
        "dualsum.annuli": count_sum("dualsum.annulus_sums"),
        "dualsum.cumulative_sums.busy_s": busy("dualsum.cumulative_sums"),
        "matcalc.eig.busy_s": busy("matcalc.eig"),
        "matcalc.eig.calls": float(len(outermost("matcalc.eig"))),
        "matcalc.eig.d3_sum": float(sum(d**3 for d in eig_dims)),
        "matcalc.parts.busy_s": busy("matcalc.parts"),
        "zeta.zeta_trace.self_s": self_time("zeta.zeta_trace"),
        "zeta.zeta_trace.calls": float(len(outermost("zeta.zeta_trace"))),
        "zeta.classes": float(sum(r[COUNT] for r in chunks
                                  if r[COUNT] is not None and under(r, "zeta.zeta_trace"))),
        "zeta.max_cutoff": float(max(cutoffs)) if cutoffs else 0.0,
        "zeta.zeta_residue.self_s": self_time("zeta.zeta_residue"),
        "weakl1.estimate_slope.busy_s": busy("weakl1.estimate_slope"),
        "weakl1.sum_series.self_s": self_time("weakl1.sum_series"),
        "residue.frozen_residue.calls": float(len(outermost("residue.frozen_residue"))),
        "residue.nodes": count_sum("residue.wodzicki_residue"),
        "residue.wodzicki_residue.self_s": self_time("residue.wodzicki_residue"),
        "cli.parse_config.busy_s": busy("cli.parse_config"),
        "cli.render_json.busy_s": busy("cli.render_json"),
        "cli.report_bytes": count_sum("cli.render_json"),
        "cli.run_task.self_s": self_time("cli.run_task"),
        "cli.threads": float(max(threads)) if threads else 0.0,
    }


def median_metrics(per_iteration: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
