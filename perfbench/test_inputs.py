"""Checks of the benchmark's generated inputs.

They look at the inputs and at public attributes of the symbols built from
them (the structure tag), never at the program's internals, so that an
optimisation of the program cannot break them.  Run from the root of a
checkout:

    python3 -m pytest -q perfbench
"""

import math
import os
import sys

import numpy as np
import pytest

import inputs
import workloads

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import ncresidue as nc  # noqa: E402
import ncresidue.cli  # noqa: E402,F401

SEEDS = (0, 1, 12345)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_gives_identical_inputs(workload, seed):
    assert inputs.input_bytes(inputs.generate(workload, seed)) == inputs.input_bytes(inputs.generate(workload, seed))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seeds_change_the_inputs(workload):
    assert inputs.input_bytes(inputs.generate(workload, 1)) != inputs.input_bytes(inputs.generate(workload, 2))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_references_are_finite(workload, seed):
    assert workloads.finite_references(inputs.generate(workload, seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_canonical_symbols_are_scalar(seed, tmp_path):
    state = workloads.WORKLOADS["canonical-table"].setup(nc, inputs.canonical_inputs(seed), str(tmp_path))
    assert [sym.structure for _, sym, _ in state] == ["scalar"] * len(inputs.CANONICAL_CASES)


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_symbol_is_dense(seed, tmp_path):
    inp = inputs.dense_inputs(seed)
    sym, _ = workloads.WORKLOADS["su2-dense"].setup(nc, inp, str(tmp_path))
    assert sym.structure == "dense"
    for u in inp["unitaries"]:
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_heavy_cli_config_is_diagonal(seed, tmp_path):
    inp = inputs.cli_inputs(seed)
    inputs.write_configs(inp, str(tmp_path))
    parsed = workloads.WORKLOADS["cli-configs"].setup(nc, inp, str(tmp_path))
    heavy = parsed[inputs.HEAVY_CONFIG]
    assert nc.cli.build_symbol(heavy.group, heavy.symbol_spec).structure == "diagonal"
    assert heavy.quadrature_resolution == inputs.HEAVY_RESOLUTION
    assert set(parsed) == set(inp["configs"])


@pytest.mark.parametrize("seed", SEEDS)
def test_modulation_is_positive(seed):
    poly = inputs.cli_inputs(seed)["configs"][inputs.HEAVY_CONFIG]["modulation"]["coefficients"]
    assert min(inputs.class_poly(poly, t / 50.0) for t in range(-50, 51)) > 0.0


def test_dense_closed_form_matches_pattern():
    inp = inputs.dense_inputs(7)
    re_pos, re_neg, im_pos, im_neg = inp["four_norms_reference"]
    assert math.isclose(re_pos - re_neg, inp["pattern_scale"] * sum(inputs.PATTERN_A) / len(inputs.PATTERN_A))
    assert math.isclose(im_pos - im_neg, inp["pattern_scale"] * sum(inputs.PATTERN_B) / len(inputs.PATTERN_B))
