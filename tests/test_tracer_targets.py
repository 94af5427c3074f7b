"""The benchmark tracer finds every name it wraps, and every count it reads.

``perfbench/tracer.py`` wraps the package's functions by name from outside
and reads one attribute of some results (``ZetaSample.truncation_cutoff``,
``ResidueReport.per_node``, ...).  A renamed function or field is not an
error there: the metric is reported as absent, and the benchmark refuses
every traced result line that carries an ``absent`` key.  This test makes
that a test failure instead.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

import ncresidue as nc
from ncresidue import cli

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_and_count_is_present(tmp_path):
    tracer = _load_tracer().Tracer()
    tracer.install(nc)
    try:
        su2 = nc.SU2()
        nc.zeta_residue(nc.weight_power_symbol(su2, 1.0, -3.0))
        nc.zeta_residue(nc.diag_signed_symbol(su2, -3.0), s_schedule=[1.6, 1.2, 0.8])
        nc.sum_series(nc.weight_power_symbol(nc.Torus(2), 1.0, -2.0), nc.geometric_schedule(4.0, 2.0, 4))
        dense = nc.dense_symbol(
            su2,
            lambda xi: xi.weight**-3.0 * np.diag(np.linspace(-1.0, 1.0, xi.dim)).astype(complex),
            nc.DecayEnvelope(1.0, -3.0),
        )
        nc.frozen_residue(dense, nc.geometric_schedule(2.0, 2.0, 4))
        config = {
            "group": {"kind": "torus", "n": 1},
            "symbol": {"family": "weight_power", "alpha": -1.0},
            "task": "residue",
            "schedule": {"start": 16, "factor": 2, "count": 4},
            "modulation": {"kind": "fourier", "coefficients": [2.0, 0.5]},
            "quadrature_resolution": 4,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["residue", "--config", str(path), "--out", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == {}
    assert tracer.spans
