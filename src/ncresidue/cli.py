"""Config-driven command line front end.

The task, ``weakl1``, ``zeta``, ``residue`` or ``sweep``, is the first
argument; one flat parser takes it with ``--config``, ``--out`` and
``--verbose``.  A task reads a JSON run configuration, executes the
corresponding computation and writes a JSON report (plus a CSV series for
sweeps).  Reports are byte-stable for a fixed configuration apart from the
wall-clock field; floats are printed with 17 significant digits so parsed
values round-trip exactly.

The report is one document whose keys are added in the README's schema
order, so it is written as built: ``config_echo``, ``task``, ``value``,
``error_bar`` (both null after a numerical failure), ``series_path``,
``per_node`` and ``cross_check`` where present, ``flags`` and, last,
``wall_time_ms``.

Exit codes: 0 success (and ``--help``), 2 flagged (result present but
unreliable), 1 numerical failure, 64 malformed configuration or usage;
argparse prints the usage errors.  Malformed
includes a non-finite number (NaN, Infinity), a string or boolean where a
number belongs, a fractional count, a non-boolean ``cross_check``, a
schedule whose last cutoff nears float max, zeta options that
``zeta.check_options`` refuses, and a ``weakl1`` or ``residue`` schedule
that ``weakl1.check_slope_schedule`` refuses.  ``weakl1`` and ``sweep``
share one runner; ``sweep`` is its ``abs`` case with the series CSV always
written.  A sweep whose series is too short for a slope still exits 0: its
CSV is written, and its report carries value 0 and ``SHORT_SWEEP_FLAG``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from json.encoder import encode_basestring_ascii  # what json.dumps writes for a str
from typing import Callable, Optional

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
    modulation: Optional[Callable] = None  # a(x), from build_modulation
    quadrature_resolution: int = 1
    zeta: dict = dc_field(default_factory=dict)  # zeta.zeta_residue keyword arguments
    cross_check: bool = False
    report_path: Optional[str] = None
    series_path: Optional[str] = None
    echo: dict = dc_field(default_factory=dict)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _number(value, key: str, integer: bool = False):
    """A number in float range: a float, or an int if ``integer``; else ConfigError naming ``key``."""
    _require(value is not None, f"config needs {key}")
    kinds = int if integer else (int, float)
    ok = isinstance(value, kinds) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    _require(ok, f"{key} must be {'an integer' if integer else 'a finite number'}, got {value!r}")
    return value if integer else float(value)


def _build_group(spec) -> GroupModel:
    _require(isinstance(spec, dict) and "kind" in spec, "config needs group.kind")
    kind = spec["kind"]
    if kind == "torus":
        n = _number(spec.get("n"), "group.n", integer=True)
        _require(n in (1, 2, 3), f"torus n must be 1, 2 or 3, got {n!r}")
        return Torus(n)
    if kind == "su2":
        return SU2()
    raise ConfigError(f"unknown group kind {kind!r}")


def build_symbol(group: GroupModel, spec) -> MatrixSymbol:
    _require(isinstance(spec, dict) and "family" in spec, "config needs symbol.family")
    family = spec["family"]
    if family == "weight_power":
        coeff = complex(
            _number(spec.get("coeff_re", 1.0), "symbol.coeff_re"),
            _number(spec.get("coeff_im", 0.0), "symbol.coeff_im"),
        )
        return weight_power_symbol(group, coeff, _number(spec.get("alpha"), "symbol.alpha"))
    if family == "diag_signed":
        return diag_signed_symbol(group, _number(spec.get("alpha"), "symbol.alpha"))
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
    coeffs = [_number(c, "modulation.coefficients") for c in coeffs]
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
            f"config task {task!r} conflicts with the {task_override!r} command"
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
        start = _number(sched_spec.get("start"), "schedule.start")
        factor = _number(sched_spec.get("factor"), "schedule.factor")
        count = _number(sched_spec.get("count"), "schedule.count", integer=True)
        try:
            schedule = weakl1.geometric_schedule(start, factor, count)
            if task != "sweep":  # a sweep too short for a slope still writes its series
                weakl1.check_slope_schedule(schedule)
        except InvalidArgumentError as exc:
            raise ConfigError(f"schedule (start, factor, count): {exc}") from None

    mode = raw.get("mode", "abs")
    _require(mode in ("abs", "signed"), f"mode must be 'abs' or 'signed', got {mode!r}")
    _require(
        not (task == "sweep" and mode != "abs"),
        "sweep emits the absolute-trace series; mode must be 'abs'",
    )

    modulation = raw.get("modulation")
    if modulation is not None:
        _require(task == "residue", "modulation is only meaningful for the residue task")
        modulation = build_modulation(group, modulation)
    resolution = raw.get("quadrature_resolution", 8 if modulation is not None else 1)
    resolution = _number(resolution, "quadrature_resolution", integer=True)
    _require(resolution >= 1, "quadrature_resolution must be >= 1")

    zeta_spec = raw.get("zeta", {})
    _require(isinstance(zeta_spec, dict), "zeta options must be an object")
    s_schedule = zeta_spec.get("s_schedule")
    if s_schedule is not None:
        _require(isinstance(s_schedule, list), "zeta.s_schedule must be a list")
        s_schedule = [_number(v, "zeta.s_schedule") for v in s_schedule]
    zeta_options = {"s_schedule": s_schedule}
    for key in ("tol", "max_cutoff"):
        zeta_options[key] = None if zeta_spec.get(key) is None else _number(zeta_spec[key], f"zeta.{key}")
    try:
        zeta.check_options(zeta_options["s_schedule"], zeta_options["tol"], zeta_options["max_cutoff"])
    except InvalidArgumentError as exc:
        raise ConfigError(f"zeta options (s_schedule, tol, max_cutoff): {exc}") from None

    cross_check = raw.get("cross_check", False)
    _require(isinstance(cross_check, bool), f"cross_check must be true or false, got {cross_check!r}")

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
        zeta=zeta_options,
        cross_check=cross_check,
        report_path=output.get("report"),
        series_path=output.get("series"),
        echo=raw,
    )


# ---------------------------------------------------------------------------
# JSON rendering with fixed float formatting


def render_json(obj) -> str:
    """``obj`` as indented JSON: ``.17g`` floats, null for non-finite ones, keys in build order."""
    out: list = []
    _write_json(obj, "", out)
    return "".join(out)


def _write_json(obj, pad: str, out: list) -> None:
    """Append the JSON text of ``obj``, nested at indent ``pad``, to ``out``."""
    if isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        if not obj:
            out.append("{}" if is_dict else "[]")
            return
        inner, sep = pad + "  ", "{\n" if is_dict else "[\n"
        for item in obj.items() if is_dict else obj:
            out.append(sep + inner)
            if is_dict:
                out.append(encode_basestring_ascii(str(item[0])) + ": ")
                item = item[1]
            _write_json(item, inner, out)
            sep = ",\n"
        out.append("\n" + pad + ("}" if is_dict else "]"))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(format(x, ".17g") if math.isfinite(x) else "null")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    else:
        raise TypeError(f"cannot render {type(obj)!r}")


def _complex_dict(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


# ---------------------------------------------------------------------------
# Task execution


def _build_field(config: RunConfig, sym: MatrixSymbol) -> SymbolField:
    quad = config.group.haar_quadrature(config.quadrature_resolution)
    if config.modulation is None:
        return invariant_field(sym, quad)
    return modulated_field(config.modulation, sym, quad, sym.envelope.order)


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
    """The ``weakl1`` and ``sweep`` tasks: the weak-l1 slope of the partial sums."""
    sym = build_symbol(config.group, config.symbol_spec)
    series = weakl1.sum_series(sym, config.schedule, mode=config.mode)
    # "abs" fits S; "signed" fits Re S and Im S in one call
    parts = [series.values.real] if config.mode == "abs" else [series.values.real, series.values.imag]
    try:
        estimates = weakl1._estimate_slopes(series.cutoffs, np.stack(parts))
    except InvalidArgumentError:  # too few entries or octaves: a sweep still reports its series
        if config.task != "sweep":
            raise
        return complex(0.0), 0.0, [SHORT_SWEEP_FLAG], {}, series
    value = complex(*(e.value for e in estimates))
    error = sum(e.error_bar for e in estimates)
    flags = list(dict.fromkeys(f for e in estimates for f in e.flags))
    return value, error, flags, {}, series


def _run_zeta(config: RunConfig):
    sym = build_symbol(config.group, config.symbol_spec)
    zres = zeta.zeta_residue(sym, **config.zeta)
    return complex(zres.value), zres.error_bar, list(zres.flags), {}, None


def _run_residue(config: RunConfig):
    sym = build_symbol(config.group, config.symbol_spec)
    field = _build_field(config, sym)
    report = residue_mod.wodzicki_residue(field, config.schedule)
    if config.cross_check:
        report = residue_mod.attach_zeta_cross_check(report, field, **config.zeta)
    extra = {
        "per_node": [
            {
                "node": [float(v) for v in nr.node],
                "weight": nr.weight,
                # vars lists the parts in field order: re_pos, re_neg, im_pos, im_neg
                "four_norms": {
                    part: {"value": e.value, "error_bar": e.error_bar} for part, e in vars(nr.norms).items()
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


_RUNNERS = {
    "weakl1": _run_weakl1,
    "zeta": _run_zeta,
    "residue": _run_residue,
    "sweep": _run_weakl1,
}


def run_task(config: RunConfig, out_path: Optional[str] = None, verbose: bool = False) -> int:
    """Execute the configured task and write the report (and series CSV).

    A numerical failure, including a non-finite value or error bar from any
    task, writes a flagged report without a value and returns 1.
    """
    report_path = out_path or config.report_path or "report.json"
    t0 = time.perf_counter()
    document = {"config_echo": config.echo, "task": config.task}
    try:
        value, error, flags, extra, series = _RUNNERS[config.task](config)
        if not (np.isfinite(value) and np.isfinite(error)):
            raise NumericalFailureError(f"non-finite {config.task} result: {value}, error bar {error}")
    except (InvalidArgumentError, NumericalFailureError, BudgetExceededError) as exc:
        document.update(value=None, error_bar=None, flags=[f"numerical failure: {exc}"])
        status, message = 1, f"error: {exc}"
    else:
        document.update(value=_complex_dict(value), error_bar=float(error))
        if series is not None and (config.task == "sweep" or config.series_path):
            document["series_path"] = config.series_path or os.path.splitext(report_path)[0] + "_series.csv"
            write_series_csv(document["series_path"], series)
        document.update(extra, flags=flags)
        status = 2 if set(flags) - {SHORT_SWEEP_FLAG} else 0
        message = f"report written to {report_path}"
    document["wall_time_ms"] = 1000.0 * (time.perf_counter() - t0)
    with open(report_path, "w") as fh:
        fh.write(render_json(document) + "\n")
    if verbose:
        print(message, file=sys.stderr)
    return status


def threads_from_environment() -> int:
    """Always 1: sums run on the calling thread, whatever the environment says.

    Kept only because the benchmark's tracer (``perfbench/tracer.py``) wraps
    this name; without it every traced result line gains an ``absent`` entry.
    It goes when the tracer stops targeting it.
    """
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncres",
        description="Noncommutative residues on compact Lie groups from matrix symbols",
    )
    parser.add_argument(
        "command",
        choices=TASKS,
        help="weakl1: weak-l1 slope of an invariant symbol; zeta: zeta-trace residue of an invariant "
        "symbol; residue: residue of a symbol field via the four weak-l1 norms; sweep: convergence "
        "trace of the partial sums as CSV",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", help="report output path (overrides config)")
    parser.add_argument("--verbose", action="store_true")
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
    except SystemExit as exc:  # argparse has printed the help, or the usage and error
        return 0 if exc.code == 0 else USAGE_EXIT
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
