"""Checks of the tracer itself, on stand-in modules rather than the program."""

import itertools
import json
import os
import sys
import types

import inputs
import tracer as tr


def _fake_package():
    """A package with one traced function and everything else missing."""
    pkg = types.ModuleType("fakepkg")
    dualsum = types.ModuleType("fakepkg.dualsum")

    def annulus_sums(sym, schedule, mode):
        return [sum(schedule)]

    dualsum.annulus_sums = annulus_sums
    pkg.dualsum = dualsum
    pkg.annulus_sums = annulus_sums  # a re-export must be wrapped as well
    return pkg, dualsum, annulus_sums


def test_missing_targets_are_recorded_as_absent(monkeypatch):
    pkg, dualsum, original = _fake_package()
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.dualsum", dualsum)
    tracer = tr.Tracer()
    tracer.install(pkg)
    try:
        assert dualsum.annulus_sums is not original and pkg.annulus_sums is dualsum.annulus_sums
        assert pkg.annulus_sums(None, [1.0, 2.0], "abs") == [3.0]
    finally:
        tracer.uninstall()
    assert dualsum.annulus_sums is original and pkg.annulus_sums is original
    absent = tr.absent_metrics(tracer.absent)
    assert "no module 'matcalc'" in absent["matcalc.eig.busy_s"]
    assert "dualsum.cumulative_sums is missing" in absent["dualsum.cumulative_sums.busy_s"]
    assert "dualsum.annuli" not in absent and "dualsum.annulus_sums.self_s" not in absent
    (span,) = tracer.spans
    metrics = tr.window_metrics(tracer.spans, tracer.enumerations, span[tr.START], span[tr.END])
    assert metrics["dualsum.annulus_sums.calls"] == 1.0
    assert metrics["dualsum.annuli"] == 2.0


def test_self_time_excludes_children_and_nested_calls_count_once():
    tracer = tr.Tracer()
    outer = tracer.begin("matcalc.eig")
    inner = tracer.begin("matcalc.eig")
    inner[tr.COUNT] = 3
    tracer.end(inner)
    child = tracer.begin("matcalc.parts")
    tracer.end(child)
    tracer.end(outer)
    outer[tr.COUNT] = 4
    m = tr.window_metrics(tracer.spans, [], outer[tr.START], outer[tr.END])
    assert m["matcalc.eig.calls"] == 1.0
    assert m["matcalc.eig.d3_sum"] == 64.0
    assert m["matcalc.eig.busy_s"] == outer[tr.END] - outer[tr.START]


def test_lattice_counts_match_brute_force():
    for n in (1, 2, 3):
        for r2max in (-1, 0, 1, 2, 5, 17, 50):
            k = 8
            brute = sum(
                1 for p in itertools.product(range(-k, k + 1), repeat=n) if sum(v * v for v in p) <= r2max
            )
            assert tr._lattice_count(n, r2max) == brute


def test_distinct_classes_merge_overlapping_annuli():
    # SU(2) classes have weights 1, 2, 3, ...; (0,4] and (2,6] overlap
    enums = [(0.0, "SU2", 0.0, 4.0), (0.0, "SU2", 2.0, 6.0), (0.0, "SU2", 0.0, 4.0)]
    assert tr.distinct_classes(enums) == 6
    # T1: weights sqrt(1 + k^2) <= 4 for |k| <= 3
    assert tr.distinct_classes([(0.0, "T1", 0.0, 4.0)]) == 7


def test_benchmark_json_lists_the_traced_metrics():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tr.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
