"""The three workloads: set-up, one solve, and the checks of a solve.

Each workload stresses one layer of ``ncresidue`` (see ``PREDICTIONS``):

* ``canonical-table``: the paper's headline table, slope and zeta residue of
  c * <xi>^-n on T^1, T^2, T^3 and SU(2).  Radial symbols, no eigensolves;
  dual enumeration is most of the cost.
* ``su2-dense``: the four-norm residue of a dense SU(2) symbol to N = 64.
  The eigensolver is most of the cost; enumeration is trivial.
* ``cli-configs``: ``cli.main`` on the four shipped configs and one
  64-node modulated diagonal residue; the path users take.

Calls go through the package's module attributes (``nc.weakl1.sum_series``)
so that the tracer's wrappers see them.  No call passes ``threads=`` or
``max_sweeps=``: library workloads run with the defaults and the CLI with
its default thread count.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import inputs as gen

# Predicted layer shares of the traced solve time, checked by every traced
# run: (description, value from the per-layer metrics, operator, limit).
PREDICTIONS = {
    "canonical-table": [
        ("groups.dual_chunks share of solve", lambda m: m["groups.dual_chunks.busy_s"] / m["trace.solve_s"], ">", 0.5),
        ("matcalc.eig calls", lambda m: m["matcalc.eig.calls"], "==", 0.0),
    ],
    "su2-dense": [
        ("matcalc.eig share of solve", lambda m: m["matcalc.eig.busy_s"] / m["trace.solve_s"], ">", 0.9),
    ],
    "cli-configs": [
        (
            "symbols.eval + dualsum.annulus_sums self share of solve",
            lambda m: (m["symbols.eval.busy_s"] + m["dualsum.annulus_sums.self_s"]) / m["trace.solve_s"],
            ">",
            0.5,
        ),
        ("matcalc.eig calls", lambda m: m["matcalc.eig.calls"], "==", 0.0),
    ],
}


@dataclass
class Result:
    """One checked number: |value - reference| <= allow, errors relative to scale."""

    label: str
    value: complex
    reference: complex
    scale: float
    bar: float
    allow: float

    @property
    def ok(self) -> bool:
        return bool(math.isfinite(abs(self.value)) and abs(self.value - self.reference) <= self.allow)

    @property
    def rel_err(self) -> float:
        return abs(self.value - self.reference) / self.scale

    @property
    def rel_bar(self) -> float:
        return self.bar / self.scale


def _group(nc, spec):
    return nc.Torus(spec["n"]) if spec["kind"] == "torus" else nc.SU2()


# -- canonical-table -------------------------------------------------------------


class CanonicalTable:
    name = "canonical-table"

    def prepare(self, nc, inp, workdir):
        return None

    def setup(self, nc, inp, workdir):
        state = []
        for case in inp["cases"]:
            sym = nc.weight_power_symbol(_group(nc, case["group"]), complex(*case["coeff"]), case["alpha"])
            state.append((case, sym, nc.geometric_schedule(*case["schedule"])))
        return state

    def solve(self, nc, state, workdir):
        return [
            (nc.estimate_slope(nc.sum_series(sym, schedule)), nc.zeta_residue(sym))
            for _, sym, schedule in state
        ]

    def check(self, inp, prepared, state, out, workdir):
        results = []
        for (case, _, _), (slope, zres) in zip(state, out):
            scale = case["scale"]
            results.append(Result(f"{case['name']} slope", complex(slope.value), case["slope_reference"],
                                  scale, slope.error_bar, case["slope_tol"] * scale))
            results.append(Result(f"{case['name']} zeta", complex(zres.value), complex(*case["zeta_reference"]),
                                  scale, zres.error_bar, zres.error_bar + gen.BAR_SLACK * scale))
        fingerprint = repr([(s.value, s.error_bar, z.value, z.error_bar) for s, z in out])
        return results, [], fingerprint


# -- su2-dense ---------------------------------------------------------------------


def _four(norms):
    return [norms.re_pos, norms.re_neg, norms.im_pos, norms.im_neg]


class Su2Dense:
    name = "su2-dense"

    def _diag(self, inp, d):
        return gen.dense_pattern(inp["pattern_scale"], d)

    def prepare(self, nc, inp, workdir):
        """Four-norms of the same spectra through the diagonal path (untimed)."""
        group = nc.SU2()
        sym = nc.diagonal_symbol(
            group, lambda xi: xi.weight**-3.0 * self._diag(inp, xi.dim),
            nc.DecayEnvelope(inp["envelope"], -3.0),
        )
        return [e.value for e in _four(nc.frozen_residue(sym, nc.geometric_schedule(*inp["schedule"])))]

    def setup(self, nc, inp, workdir):
        unitaries = inp["unitaries"]

        def evaluator(xi):
            u = unitaries[xi.label]
            return xi.weight**-3.0 * (u * self._diag(inp, xi.dim)) @ u.conj().T

        sym = nc.dense_symbol(nc.SU2(), evaluator, nc.DecayEnvelope(inp["envelope"], -3.0), check=True)
        return sym, nc.geometric_schedule(*inp["schedule"])

    def solve(self, nc, state, workdir):
        sym, schedule = state
        return nc.frozen_residue(sym, schedule)

    def check(self, inp, prepared, state, out, workdir):
        scale = inp["scale"]
        results = [Result("dense residue", out.value, complex(*inp["reference"]), scale,
                          out.error_bar, out.error_bar + gen.BAR_SLACK * scale)]
        problems = []
        for label, dense, diag in zip(("re_pos", "re_neg", "im_pos", "im_neg"), _four(out), prepared):
            if not abs(dense.value - diag) <= gen.INVARIANCE_TOL * abs(diag):
                problems.append(f"{label}: dense {dense.value!r} != diagonal {diag!r}")
        fingerprint = repr([(e.value, e.error_bar) for e in _four(out)])
        return results, problems, fingerprint


# -- cli-configs ---------------------------------------------------------------------

_WALL = re.compile(r'"wall_time_ms": [0-9.eE+-]+')


class CliConfigs:
    name = "cli-configs"

    def prepare(self, nc, inp, workdir):
        return None

    def setup(self, nc, inp, workdir):
        parsed = {}
        for name in inp["configs"]:
            with open(Path(workdir, f"{name}.json")) as fh:
                parsed[name] = nc.cli.parse_config(json.load(fh))
        return parsed

    def solve(self, nc, state, workdir):
        # Relative paths keep the configs byte-identical across runs; reports
        # and the sweep CSV land in the work directory.
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            return {
                name: nc.cli.main([config.task, "--config", f"{name}.json", "--out", f"{name}_report.json"])
                for name, config in state.items()
            }
        finally:
            os.chdir(cwd)

    def check(self, inp, prepared, state, codes, workdir):
        results, problems, texts = [], [], []
        for name, code in codes.items():
            if code != 0:
                problems.append(f"{name}: exit code {code}")
                continue
            text = Path(workdir, f"{name}_report.json").read_text()
            texts.append(_WALL.sub('"wall_time_ms": X', text))
            report = json.loads(text)
            results.extend(self._check_report(name, report, inp["references"][name]))
        sweep_csv = Path(workdir, "su2_sweep.csv")
        texts.append(sweep_csv.read_text() if sweep_csv.exists() else "")
        return results, problems, "\n".join(texts)

    def _check_report(self, name, report, ref):
        value = complex(report["value"]["re"], report["value"]["im"])
        bar = float(report["error_bar"])
        out = []
        per_node = ref.get("per_node")
        if per_node is not None:
            node_refs = []
            for node in report["per_node"]:
                x = node["node"]
                if per_node["kind"] == "fourier":
                    a = sum(c * math.cos(k * x[0]) for k, c in enumerate(per_node["coefficients"]))
                else:
                    a = gen.class_poly(per_node["coefficients"], gen.su2_class_cosine(x))
                node_refs.append((node, a))
            out.extend(self._check_nodes(name, node_refs, per_node))
        if "scale" in ref:
            scale = ref["scale"]
        else:
            # the total tends to zero; measure it against the mass of one sign
            scale = sum(node["weight"] * a * per_node["half_norm"] for node, a in node_refs)
        allow = bar + gen.BAR_SLACK * scale if "bar_slack" in ref else ref["tol"] * scale
        out.append(Result(name, value, complex(*ref["value"]), scale, bar, allow))
        return out

    def _check_nodes(self, name, node_refs, per_node):
        out = []
        for j, (node, a) in enumerate(node_refs):
            f = node["four_norms"]
            if "half_norm" in per_node:
                # Re+ and Re- each carry a(x) * half_norm; there is no imaginary part
                half = a * per_node["half_norm"]
                for part in ("re_pos", "re_neg"):
                    out.append(Result(f"{name} node {j} {part}", complex(f[part]["value"]), half, half,
                                      f[part]["error_bar"], gen.SU2_SLOPE_TOL * half))
                for part in ("im_pos", "im_neg"):
                    out.append(Result(f"{name} node {j} {part}", complex(f[part]["value"]), 0.0, half,
                                      f[part]["error_bar"], 1e-12 * half))
            else:
                node_value = complex(f["re_pos"]["value"] - f["re_neg"]["value"],
                                     f["im_pos"]["value"] - f["im_neg"]["value"])
                node_bar = sum(f[p]["error_bar"] for p in ("re_pos", "re_neg", "im_pos", "im_neg"))
                expect = a * complex(*per_node["value"])
                out.append(Result(f"{name} node {j}", node_value, expect, abs(expect), node_bar,
                                  gen.RESIDUE_TOL * abs(expect)))
        return out


WORKLOADS = {w.name: w for w in (CanonicalTable(), Su2Dense(), CliConfigs())}


def check_predictions(workload: str, metrics: dict) -> list[dict]:
    out = []
    for description, value_of, op, limit in PREDICTIONS[workload]:
        value = value_of(metrics)
        holds = value > limit if op == ">" else value == limit
        out.append({"prediction": f"{description} {op} {limit:g}", "value": value, "holds": holds})
    return out


def finite_references(inp: dict) -> bool:
    """True when every reference the workload's checks use is finite."""
    refs = []

    def walk(obj, key=""):
        is_ref = "reference" in key or key in ("value", "half_norm", "scale")
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(v, k)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                walk(v, key)
        elif isinstance(obj, (int, float)) and is_ref:
            refs.append(float(obj))

    walk({k: v for k, v in inp.items() if k != "unitaries"})
    return bool(refs) and all(math.isfinite(v) for v in refs)
