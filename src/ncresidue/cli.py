"""Config-driven command line front end.

Subcommands ``weakl1``, ``zeta``, ``residue`` and ``sweep`` read a JSON run
configuration, execute the corresponding computation and write a JSON
report (plus a CSV series for sweeps).  Reports are byte-stable for a fixed
configuration apart from the wall-clock field; floats are printed with 17
significant digits so parsed values round-trip exactly.

Exit codes: 0 success, 2 flagged (result present but unreliable),
1 numerical failure, 64 malformed configuration (a non-finite number such
as NaN or Infinity included) or usage.  A sweep whose series is too short
for ``weakl1.estimate_slope`` still exits 0: its CSV is written, and its
report carries value 0 and ``SHORT_SWEEP_FLAG``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import residue as residue_mod
from . import weakl1, zeta
from .errors import BudgetExceededError, ConfigError, InvalidArgumentError, NumericalFailureError
from .groups import GroupModel, SU2, Torus, su2_class_cosine
from .symbols import (
    MatrixSymbol,
    SymbolField,
    diag_signed_symbol,
    invariant_field,
    modulated_field,
    weight_power_symbol,
)

TASKS = ("weakl1", "zeta", "residue", "sweep")
SHORT_SWEEP_FLAG = "series too short for a slope estimate"
USAGE_EXIT = 64


@dataclass
class RunConfig:
    group: GroupModel
    symbol_spec: dict
    task: str
    schedule: list
    mode: str = "abs"
    modulation: Optional[dict] = None
    quadrature_resolution: int = 1
    s_schedule: Optional[list] = None
    zeta_tol: Optional[float] = None
    zeta_max_cutoff: Optional[float] = None
    cross_check: bool = False
    report_path: Optional[str] = None
    series_path: Optional[str] = None
    echo: dict = dc_field(default_factory=dict)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _build_group(spec) -> GroupModel:
    _require(isinstance(spec, dict) and "kind" in spec, "config needs group.kind")
    kind = spec["kind"]
    if kind == "torus":
        _require("n" in spec, "torus group needs n")
        n = spec["n"]
        _require(n in (1, 2, 3), f"torus n must be 1, 2 or 3, got {n!r}")
        return Torus(n)
    if kind == "su2":
        return SU2()
    raise ConfigError(f"unknown group kind {kind!r}")


def build_symbol(group: GroupModel, spec) -> MatrixSymbol:
    _require(isinstance(spec, dict) and "family" in spec, "config needs symbol.family")
    family = spec["family"]
    if family == "weight_power":
        _require("alpha" in spec, "weight_power needs alpha")
        coeff = complex(float(spec.get("coeff_re", 1.0)), float(spec.get("coeff_im", 0.0)))
        return weight_power_symbol(group, coeff, float(spec["alpha"]))
    if family == "diag_signed":
        _require("alpha" in spec, "diag_signed needs alpha")
        return diag_signed_symbol(group, float(spec["alpha"]))
    raise ConfigError(f"unknown symbol family {family!r}")


def build_modulation(group: GroupModel, spec):
    """Scalar function on the group from a modulation spec.

    Torus: cosine series in the first angle, a(x) = sum_k c_k cos(k x_1).
    SU(2): polynomial in the conjugacy half-angle cosine,
    a(g) = sum_k c_k (Tr g / 2)**k.
    """
    _require(isinstance(spec, dict) and "kind" in spec, "modulation needs kind")
    coeffs = spec.get("coefficients")
    _require(
        isinstance(coeffs, list) and len(coeffs) >= 1,
        "modulation needs a non-empty coefficients list",
    )
    coeffs = [float(c) for c in coeffs]
    kind = spec["kind"]
    if kind == "fourier":
        _require(group.name.startswith("T"), "fourier modulation applies to torus groups")

        def a(node):
            x = float(np.asarray(node).ravel()[0])
            return sum(c * math.cos(k * x) for k, c in enumerate(coeffs))

        return a
    if kind == "class_poly":
        _require(group.name == "SU2", "class_poly modulation applies to SU(2)")

        def a(node):
            t = su2_class_cosine(node)
            return sum(c * t**k for k, c in enumerate(coeffs))

        return a
    raise ConfigError(f"unknown modulation kind {kind!r}")


def parse_config(raw: dict, task_override: Optional[str] = None) -> RunConfig:
    _require(isinstance(raw, dict), "config must be a JSON object")
    task = raw.get("task", task_override)
    _require(task in TASKS, f"task must be one of {TASKS}, got {task!r}")
    if task_override is not None and task != task_override:
        raise ConfigError(
            f"config task {task!r} conflicts with the {task_override!r} subcommand"
        )
    group = _build_group(raw.get("group"))
    symbol_spec = raw.get("symbol")
    _require(isinstance(symbol_spec, dict), "config needs a symbol object")
    try:
        build_symbol(group, symbol_spec)  # validate the family and parameters now
    except (InvalidArgumentError, ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid symbol parameters: {exc}") from None

    schedule: list = []
    if task in ("weakl1", "residue", "sweep"):
        sched_spec = raw.get("schedule")
        _require(isinstance(sched_spec, dict), f"task {task!r} needs a schedule object")
        for key in ("start", "factor", "count"):
            _require(key in sched_spec, f"schedule needs {key}")
        start = float(sched_spec["start"])
        factor = float(sched_spec["factor"])
        count = int(sched_spec["count"])
        _require(start >= 1.0, "schedule.start must be >= 1")
        _require(factor > 1.0, "schedule.factor must be > 1")
        min_count = 4 if task in ("weakl1", "residue") else 1
        _require(count >= min_count, f"task {task!r} needs schedule.count >= {min_count}")
        schedule = weakl1.geometric_schedule(start, factor, count)

    mode = raw.get("mode", "abs")
    _require(mode in ("abs", "signed"), f"mode must be 'abs' or 'signed', got {mode!r}")
    _require(
        not (task == "sweep" and mode != "abs"),
        "sweep emits the absolute-trace series; mode must be 'abs'",
    )

    modulation = raw.get("modulation")
    if modulation is not None:
        _require(task == "residue", "modulation is only meaningful for the residue task")
        build_modulation(group, modulation)  # validate the kind now
    resolution = raw.get("quadrature_resolution", 8 if modulation is not None else 1)
    _require(
        isinstance(resolution, int) and resolution >= 1,
        "quadrature_resolution must be a positive integer",
    )

    zeta_spec = raw.get("zeta", {})
    _require(isinstance(zeta_spec, dict), "zeta options must be an object")
    s_schedule = zeta_spec.get("s_schedule")
    if s_schedule is not None:
        _require(
            isinstance(s_schedule, list) and len(s_schedule) >= 3,
            "zeta.s_schedule needs at least 3 values",
        )
        s_schedule = [float(v) for v in s_schedule]
    zeta_tol = zeta_spec.get("tol")
    if zeta_tol is not None:
        zeta_tol = float(zeta_tol)
        _require(zeta_tol > 0.0, "zeta.tol must be positive")
    zeta_max = zeta_spec.get("max_cutoff")
    if zeta_max is not None:
        zeta_max = float(zeta_max)
        _require(math.isfinite(zeta_max) and zeta_max >= 1.0, "zeta.max_cutoff must be finite and >= 1")

    output = raw.get("output", {})
    _require(isinstance(output, dict), "output options must be an object")

    return RunConfig(
        group=group,
        symbol_spec=symbol_spec,
        task=task,
        schedule=schedule,
        mode=mode,
        modulation=modulation,
        quadrature_resolution=resolution,
        s_schedule=s_schedule,
        zeta_tol=zeta_tol,
        zeta_max_cutoff=zeta_max,
        cross_check=bool(raw.get("cross_check", False)),
        report_path=output.get("report"),
        series_path=output.get("series"),
        echo=raw,
    )


# ---------------------------------------------------------------------------
# JSON rendering with fixed float formatting


def _render_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(float(x), ".17g")


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _render_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + render_json(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            items.append("  " * (indent + 1) + json.dumps(str(k)) + ": " + render_json(v, indent + 1))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(obj)!r}")


def _complex_dict(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


# ---------------------------------------------------------------------------
# Task execution


def _build_field(config: RunConfig, sym: MatrixSymbol) -> SymbolField:
    if config.modulation is None:
        quad = config.group.haar_quadrature(config.quadrature_resolution)
        return invariant_field(sym, quad)
    a = build_modulation(config.group, config.modulation)
    quad = config.group.haar_quadrature(config.quadrature_resolution)
    return modulated_field(a, sym, quad, sym.envelope.order)


def _series_rows(series: weakl1.PartialSumSeries):
    """Rows N, logN, S, ratio, slope.

    The slope is ``weakl1.estimate_slope`` on the series through the row,
    nan where the estimator refuses that prefix (too short, or a fit that
    is not finite).
    """
    cutoffs = series.cutoffs
    vals = np.real(series.values)
    logs = np.log(cutoffs)
    rows = []
    for j in range(len(cutoffs)):
        ratio = vals[j] / logs[j] if logs[j] > 0.0 else float("nan")
        prefix = weakl1.PartialSumSeries(cutoffs[: j + 1], series.values[: j + 1], series.mode)
        try:
            slope = weakl1.estimate_slope(prefix).value
        except (InvalidArgumentError, NumericalFailureError):
            slope = float("nan")
        rows.append((float(cutoffs[j]), float(logs[j]), float(vals[j]), ratio, slope))
    return rows


def write_series_csv(path: str, series: weakl1.PartialSumSeries) -> None:
    lines = ["N,logN,S,ratio,slope"]
    for row in _series_rows(series):
        lines.append(",".join(format(v, ".17g") for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_weakl1(config: RunConfig):
    sym = build_symbol(config.group, config.symbol_spec)
    series = weakl1.sum_series(sym, config.schedule, mode=config.mode)
    # "abs" fits S; "signed" fits Re S and Im S in one call
    parts = [series.values.real] if config.mode == "abs" else [series.values.real, series.values.imag]
    estimates = weakl1._estimate_slopes(series.cutoffs, np.stack(parts))
    value = complex(*(e.value for e in estimates))
    error = sum(e.error_bar for e in estimates)
    flags = list(dict.fromkeys(f for e in estimates for f in e.flags))
    return value, error, flags, {}, series


def _run_zeta(config: RunConfig):
    sym = build_symbol(config.group, config.symbol_spec)
    zres = zeta.zeta_residue(
        sym, s_schedule=config.s_schedule, tol=config.zeta_tol, max_cutoff=config.zeta_max_cutoff
    )
    return complex(zres.value), zres.error_bar, list(zres.flags), {}, None


def _run_residue(config: RunConfig):
    sym = build_symbol(config.group, config.symbol_spec)
    field = _build_field(config, sym)
    report = residue_mod.wodzicki_residue(field, config.schedule)
    if config.cross_check:
        report = residue_mod.attach_zeta_cross_check(
            report,
            field,
            s_schedule=config.s_schedule,
            tol=config.zeta_tol,
            max_cutoff=config.zeta_max_cutoff,
        )
    extra = {
        "per_node": [
            {
                "node": [float(v) for v in nr.node],
                "weight": nr.weight,
                "four_norms": {
                    "re_pos": {"value": nr.norms.re_pos.value, "error_bar": nr.norms.re_pos.error_bar},
                    "re_neg": {"value": nr.norms.re_neg.value, "error_bar": nr.norms.re_neg.error_bar},
                    "im_pos": {"value": nr.norms.im_pos.value, "error_bar": nr.norms.im_pos.error_bar},
                    "im_neg": {"value": nr.norms.im_neg.value, "error_bar": nr.norms.im_neg.error_bar},
                },
            }
            for nr in report.per_node
        ]
    }
    if report.cross_check is not None:
        extra["cross_check"] = {
            "zeta_value": _complex_dict(report.cross_check.zeta_value),
            "zeta_error": report.cross_check.zeta_error,
            "agreement": report.cross_check.agreement,
        }
    return report.residue, report.total_error_bar, list(report.flags), extra, None


def _run_sweep(config: RunConfig):
    sym = build_symbol(config.group, config.symbol_spec)
    series = weakl1.sum_series(sym, config.schedule, mode="abs")
    try:
        est = weakl1.estimate_slope(series)
    except InvalidArgumentError:  # too few entries or octaves
        return complex(0.0), 0.0, [SHORT_SWEEP_FLAG], {}, series
    return complex(est.value), est.error_bar, list(est.flags), {}, series


_RUNNERS = {
    "weakl1": _run_weakl1,
    "zeta": _run_zeta,
    "residue": _run_residue,
    "sweep": _run_sweep,
}


def run_task(config: RunConfig, out_path: Optional[str] = None, verbose: bool = False) -> int:
    """Execute the configured task and write the report (and series CSV).

    A numerical failure, including a non-finite value or error bar from any
    task, writes a flagged report without a value and returns 1.
    """
    report_path = out_path or config.report_path or "report.json"
    t0 = time.perf_counter()
    document = {
        "config_echo": config.echo,
        "task": config.task,
        "value": None,
        "error_bar": None,
        "flags": [],
        "wall_time_ms": 0.0,
    }
    try:
        value, error, flags, extra, series = _RUNNERS[config.task](config)
        if not (np.isfinite(value) and np.isfinite(error)):
            raise NumericalFailureError(f"non-finite {config.task} result: {value}, error bar {error}")
    except (InvalidArgumentError, NumericalFailureError, BudgetExceededError) as exc:
        document["flags"] = [f"numerical failure: {exc}"]
        document["wall_time_ms"] = 1000.0 * (time.perf_counter() - t0)
        _write_report(report_path, document)
        if verbose:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    series_path = None
    if series is not None and (config.task == "sweep" or config.series_path):
        series_path = config.series_path or _derive_series_path(report_path)
        write_series_csv(series_path, series)
    document["value"] = _complex_dict(value)
    document["error_bar"] = float(error)
    if series_path is not None:
        document["series_path"] = series_path
    document.update(extra)
    document["flags"] = flags
    document["wall_time_ms"] = 1000.0 * (time.perf_counter() - t0)
    # fixed key order for byte-stable reports
    ordered = {
        k: document[k]
        for k in (
            "config_echo",
            "task",
            "value",
            "error_bar",
            "series_path",
            "per_node",
            "cross_check",
            "flags",
            "wall_time_ms",
        )
        if k in document
    }
    _write_report(report_path, ordered)
    if verbose:
        print(f"report written to {report_path}", file=sys.stderr)
    return 2 if set(flags) - {SHORT_SWEEP_FLAG} else 0


def _derive_series_path(report_path: str) -> str:
    base, _ = os.path.splitext(report_path)
    return base + "_series.csv"


def _write_report(path: str, document: dict) -> None:
    with open(path, "w") as fh:
        fh.write(render_json(document) + "\n")


def threads_from_environment() -> int:
    """Always 1: sums run on the calling thread, whatever the environment says.

    Kept only because the benchmark's tracer (``perfbench/tracer.py``) wraps
    this name; without it every traced result line gains an ``absent`` entry.
    It goes when the tracer stops targeting it.
    """
    return 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ncres",
        description="Noncommutative residues on compact Lie groups from matrix symbols",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("residue", "residue of a symbol field via the four weak-l1 norms"),
        ("weakl1", "weak-l1 slope of an invariant symbol"),
        ("zeta", "zeta-trace residue of an invariant symbol"),
        ("sweep", "convergence trace of the partial sums as CSV"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", help="report output path (overrides config)")
        p.add_argument("--verbose", action="store_true")
    return parser


def _finite_number(text: str) -> float:
    """A JSON number, refused if it is NaN, +-Infinity or overflows to them."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config")
    return value


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return USAGE_EXIT
    try:
        with open(args.config) as fh:
            raw = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
        config = parse_config(raw, task_override=args.command)
    except (OSError, json.JSONDecodeError) as exc:
        parser.print_usage(sys.stderr)
        print(f"ncres: cannot read config {args.config!r}: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ConfigError as exc:
        parser.print_usage(sys.stderr)
        print(f"ncres: config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return run_task(config, out_path=args.out, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
