import json
import math
import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from ncresidue import cli, weakl1
from ncresidue.errors import InvalidArgumentError
from ncresidue.groups import SU2


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SU2_WEAKL1 = {
    "group": {"kind": "su2"},
    "symbol": {"family": "weight_power", "coeff_re": 1.0, "coeff_im": 0.0, "alpha": -3.0},
    "task": "weakl1",
    "schedule": {"start": 16, "factor": 2, "count": 11},
}

TORUS_RESIDUE = {
    "group": {"kind": "torus", "n": 1},
    "symbol": {"family": "weight_power", "alpha": -1.0},
    "task": "residue",
    "schedule": {"start": 16, "factor": 2, "count": 13},
    "modulation": {"kind": "fourier", "coefficients": [2.0, 1.0]},
    "quadrature_resolution": 8,
}


def _mask_wall_time(text):
    return re.sub(r'"wall_time_ms": [0-9.eE+-]+', '"wall_time_ms": X', text)


def test_su2_weakl1_task(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", SU2_WEAKL1)
    out = str(tmp_path / "report.json")
    code = cli.main(["weakl1", "--config", cfg, "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["task"] == "weakl1"
    assert abs(report["value"]["re"] - 1.0) <= 0.01
    assert report["value"]["im"] == 0.0
    assert report["flags"] == []


def test_torus_residue_task(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", TORUS_RESIDUE)
    out = str(tmp_path / "report.json")
    code = cli.main(["residue", "--config", cfg, "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert abs(report["value"]["re"] - 4.0) <= 0.08
    assert abs(report["value"]["im"]) <= 1e-12
    assert len(report["per_node"]) == 8
    weights = [n["weight"] for n in report["per_node"]]
    assert abs(sum(weights) - 1.0) <= 1e-12


def test_missing_schedule_is_usage_error(tmp_path, capsys):
    payload = dict(SU2_WEAKL1)
    del payload["schedule"]
    cfg = _write_config(tmp_path, "cfg.json", payload)
    code = cli.main(["weakl1", "--config", cfg])
    assert code == 64
    err = capsys.readouterr().err
    assert "usage" in err
    assert "schedule" in err


def test_task_subcommand_mismatch(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", SU2_WEAKL1)
    assert cli.main(["zeta", "--config", cfg]) == 64


def test_unreadable_config(tmp_path):
    assert cli.main(["weakl1", "--config", str(tmp_path / "missing.json")]) == 64


def test_unknown_family(tmp_path):
    payload = dict(SU2_WEAKL1)
    payload["symbol"] = {"family": "nope", "alpha": -3.0}
    cfg = _write_config(tmp_path, "cfg.json", payload)
    assert cli.main(["weakl1", "--config", cfg]) == 64


def test_wrong_modulation_kind_for_group(tmp_path):
    payload = json.loads(json.dumps(TORUS_RESIDUE))
    payload["modulation"]["kind"] = "class_poly"
    cfg = _write_config(tmp_path, "cfg.json", payload)
    assert cli.main(["residue", "--config", cfg]) == 64


def test_flagged_result_exits_two(tmp_path):
    payload = {
        "group": {"kind": "torus", "n": 1},
        "symbol": {"family": "weight_power", "alpha": -2.0},
        "task": "weakl1",
        "schedule": {"start": 16, "factor": 2, "count": 11},
    }
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "report.json")
    code = cli.main(["weakl1", "--config", cfg, "--out", out])
    assert code == 2
    report = json.loads(open(out).read())
    assert report["flags"]


def test_numerical_failure_exits_one(tmp_path):
    payload = {
        "group": {"kind": "torus", "n": 1},
        "symbol": {"family": "weight_power", "alpha": -1.0},
        "task": "zeta",
        "zeta": {"s_schedule": [0.8, 0.4, 0.2], "tol": 1e-9, "max_cutoff": 64},
    }
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "report.json")
    code = cli.main(["zeta", "--config", cfg, "--out", out])
    assert code == 1
    report = json.loads(open(out).read())
    assert report["value"] is None
    assert any("numerical failure" in f for f in report["flags"])


def test_cutoff_whose_square_overflows_exits_one(tmp_path):
    # the torus shells square the cutoff: 1e190**2 is not finite
    payload = {
        "group": {"kind": "torus", "n": 1},
        "symbol": {"family": "weight_power", "alpha": -1.0},
        "task": "weakl1",
        "schedule": {"start": 1e190, "factor": 2, "count": 4},
    }
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "report.json")
    assert cli.main(["weakl1", "--config", cfg, "--out", out]) == 1
    report = json.loads(open(out).read())
    assert report["value"] is None and report["error_bar"] is None
    assert any("numerical failure" in f and "squares" in f for f in report["flags"])


def test_overflowing_sum_exits_one(tmp_path):
    payload = json.loads(json.dumps(SU2_WEAKL1))
    payload["symbol"]["alpha"] = 400.0
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "report.json")
    code = cli.main(["weakl1", "--config", cfg, "--out", out])
    assert code == 1
    report = json.loads(open(out).read())
    assert report["value"] is None
    assert any("non-finite" in f for f in report["flags"])


@pytest.mark.parametrize("task", ["weakl1", "sweep", "residue"])
def test_overflowing_slope_fit_exits_one(tmp_path, task):
    # the partial sums of 1e307 * <xi>^-3 are finite; their slope fit is not
    payload = json.loads(json.dumps(SU2_WEAKL1))
    payload["task"] = task
    payload["symbol"]["coeff_re"] = 1e307
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "report.json")
    assert cli.main([task, "--config", cfg, "--out", out]) == 1
    report = json.loads(open(out).read())
    assert report["value"] is None
    assert any("non-finite" in f for f in report["flags"])


@pytest.mark.parametrize("coeff, amplitude", [(1e8, 1e300), (1.0, 3e306)])
def test_overflowing_modulated_residue_exits_one(tmp_path, coeff, amplitude):
    # the base series is finite; a node's scaled series or its slope fit is not
    payload = json.loads(json.dumps(TORUS_RESIDUE))
    payload["symbol"]["coeff_re"] = coeff
    payload["modulation"]["coefficients"] = [amplitude, 0.5 * amplitude]
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "report.json")
    code = cli.main(["residue", "--config", cfg, "--out", out])
    assert code == 1
    report = json.loads(open(out).read())
    assert report["value"] is None
    assert "per_node" not in report
    assert any("non-finite" in f for f in report["flags"])


def test_zeta_task(tmp_path):
    payload = {
        "group": {"kind": "su2"},
        "symbol": {"family": "weight_power", "alpha": -3.0},
        "task": "zeta",
    }
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "report.json")
    code = cli.main(["zeta", "--config", cfg, "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert abs(report["value"]["re"] - 1.0) <= 0.05


SU2_DIAG_SIGNED_ZETA = {
    "group": {"kind": "su2"},
    "symbol": {"family": "diag_signed", "alpha": -3.0},
    "task": "zeta",
}


def test_diag_signed_zeta_with_default_schedule(tmp_path):
    # the trace converges, so the residue is 0; the default s schedule runs
    # to s = 0.05 on every symbol structure
    cfg = _write_config(tmp_path, "cfg.json", SU2_DIAG_SIGNED_ZETA)
    out = str(tmp_path / "report.json")
    assert cli.main(["zeta", "--config", cfg, "--out", out]) == 0
    report = json.loads(open(out).read())
    assert abs(complex(report["value"]["re"], report["value"]["im"])) <= report["error_bar"] <= 1e-2
    assert report["flags"] == []
    assert report["wall_time_ms"] < 500.0


def _config_text(payload, path, literal):
    """The config's JSON with the number at ``path`` replaced by ``literal``."""
    payload = json.loads(json.dumps(payload))
    node = payload
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = "@@"
    return json.dumps(payload).replace('"@@"', literal)


@pytest.mark.parametrize(
    "path, literal",
    [
        (("symbol", "alpha"), "NaN"),
        (("symbol", "coeff_re"), "Infinity"),
        (("symbol", "alpha"), "-1e999"),
        (("zeta", "max_cutoff"), "NaN"),
    ],
)
def test_non_finite_config_number_is_a_config_error(tmp_path, capsys, path, literal):
    payload = json.loads(json.dumps(SU2_DIAG_SIGNED_ZETA))
    payload["symbol"] = {"family": "weight_power", "alpha": -3.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_config_text(payload, path, literal))
    assert cli.main(["zeta", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 64
    assert "non-finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "symbol, zeta_spec",
    [
        ({"family": "weight_power", "alpha": math.nan}, {}),
        ({"family": "weight_power", "alpha": -3.0, "coeff_re": math.inf}, {}),
        ({"family": "diag_signed", "alpha": -3.0}, {"max_cutoff": math.nan}),
        ({"family": "diag_signed", "alpha": -3.0}, {"max_cutoff": 0.5}),
    ],
    ids=["alpha", "coeff_re", "max_cutoff-nan", "max_cutoff-below-1"],
)
def test_parse_config_refuses_invalid_numbers(symbol, zeta_spec):
    # configs built in code bypass the JSON reader; parse_config checks too
    payload = dict(SU2_DIAG_SIGNED_ZETA, symbol=symbol, zeta=zeta_spec)
    with pytest.raises(cli.ConfigError):
        cli.parse_config(payload)


@pytest.mark.parametrize(
    "base, path, value",
    [
        (SU2_WEAKL1, ("schedule", "start"), "x"),
        (SU2_WEAKL1, ("schedule", "count"), "many"),
        (SU2_WEAKL1, ("schedule", "count"), 1000000),
        (SU2_WEAKL1, ("schedule", "count"), 4.7),
        (SU2_DIAG_SIGNED_ZETA, ("zeta", "tol"), "tiny"),
        (TORUS_RESIDUE, ("cross_check",), "no"),
    ],
    ids=[
        "start-string", "count-string", "count-overflows", "count-fraction", "tol-string", "cross_check-string"
    ],
)
def test_malformed_config_value_is_a_config_error(tmp_path, capsys, base, path, value):
    payload = json.loads(json.dumps(base))
    node = payload
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    cfg = _write_config(tmp_path, "cfg.json", payload)
    assert cli.main([payload["task"], "--config", cfg, "--out", str(tmp_path / "r.json")]) == 64
    assert path[-1] in capsys.readouterr().err


NARROW_SCHEDULE = {"start": 16, "factor": 1.1, "count": 5}  # five cutoffs within one octave


@pytest.mark.parametrize(
    "base, key, value",
    [
        (SU2_DIAG_SIGNED_ZETA, "zeta", {"max_cutoff": 8}),
        (SU2_DIAG_SIGNED_ZETA, "zeta", {"s_schedule": [0.2, 0.2, 0.1]}),
        (SU2_DIAG_SIGNED_ZETA, "zeta", {"s_schedule": [0.2, 0.1, 0.0]}),
        (SU2_DIAG_SIGNED_ZETA, "zeta", {"s_schedule": [0.3, 0.2]}),
        (SU2_WEAKL1, "schedule", NARROW_SCHEDULE),
        (TORUS_RESIDUE, "schedule", NARROW_SCHEDULE),
    ],
    ids=[
        "max_cutoff-below-start",
        "s_schedule-not-decreasing",
        "s_schedule-not-positive",
        "s_schedule-short",
        "weakl1-narrow-schedule",
        "residue-narrow-schedule",
    ],
)
def test_config_the_computation_refuses_is_a_config_error(tmp_path, capsys, base, key, value):
    # refused while the config is read, before any sum runs and before a report is written
    payload = dict(base, **{key: value})
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "r.json"
    assert cli.main([payload["task"], "--config", cfg, "--out", str(out)]) == 64
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_residue_with_cross_check(tmp_path):
    payload = {
        "group": {"kind": "su2"},
        "symbol": {"family": "weight_power", "alpha": -3.0},
        "task": "residue",
        "schedule": {"start": 16, "factor": 2, "count": 11},
        "cross_check": True,
    }
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "report.json")
    code = cli.main(["residue", "--config", cfg, "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["cross_check"]["agreement"] is True


def test_sweep_emits_harmonic_series(tmp_path):
    payload = {
        "group": {"kind": "su2"},
        "symbol": {"family": "weight_power", "alpha": -3.0},
        "task": "sweep",
        "schedule": {"start": 2, "factor": 2, "count": 3},
    }
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "report.json")
    code = cli.main(["sweep", "--config", cfg, "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    csv_path = report["series_path"]
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "N,logN,S,ratio,slope"
    s_values = [float(line.split(",")[2]) for line in lines[1:]]
    assert s_values == pytest.approx([1.5, 25.0 / 12.0, 761.0 / 280.0], rel=1e-12)


_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("config", _CONFIGS, ids=[p.stem for p in _CONFIGS])
def test_shipped_config_runs(tmp_path, monkeypatch, config):
    monkeypatch.chdir(tmp_path)  # series outputs are relative paths
    task = json.loads(config.read_text())["task"]
    assert cli.main([task, "--config", str(config), "--out", "report.json"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert math.isfinite(report["value"]["re"]) and math.isfinite(report["value"]["im"])
    assert math.isfinite(report["error_bar"])


def test_sweep_value_and_bar_come_from_the_slope_estimator(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = Path(__file__).resolve().parents[1] / "configs" / "su2_sweep.json"
    assert cli.main(["sweep", "--config", str(config), "--out", "report.json"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    last_row = (tmp_path / "su2_sweep.csv").read_text().strip().splitlines()[-1]
    # with 12 entries the estimator's window is the last running slope's
    assert report["value"] == {"re": float(last_row.split(",")[4]), "im": 0.0}
    assert 0.0 < report["error_bar"] < 1e-2
    assert abs(report["value"]["re"] - 1.0) <= report["error_bar"] + 0.01
    assert report["flags"] == []


def test_every_sweep_slope_is_the_estimator_on_its_prefix(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = Path(__file__).resolve().parents[1] / "configs" / "su2_sweep.json"
    assert cli.main(["sweep", "--config", str(config), "--out", "report.json"]) == 0
    rows = [line.split(",") for line in (tmp_path / "su2_sweep.csv").read_text().strip().splitlines()[1:]]
    cutoffs = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[2]) for r in rows])
    for j, row in enumerate(rows):
        prefix = weakl1.PartialSumSeries(cutoffs[: j + 1], values[: j + 1], "abs")
        if j < 3:  # fewer than 4 entries: the estimator refuses the prefix
            with pytest.raises(InvalidArgumentError):
                weakl1.estimate_slope(prefix)
            assert row[4] == "nan"
        else:
            assert float(row[4]) == weakl1.estimate_slope(prefix).value


def test_residue_demo_creates_the_report_directory(tmp_path, monkeypatch):
    demo = Path(__file__).resolve().parents[1] / "scripts" / "residue_demo.py"
    out = tmp_path / "new" / "dir" / "report.json"
    monkeypatch.setattr(sys, "argv", [str(demo), "--out", str(out)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(demo), run_name="__main__")
    assert stop.value.code == 0
    assert json.loads(out.read_text())["flags"] == []


@pytest.mark.parametrize("count", [1, 3])
def test_short_sweep_reports_zero_with_a_flag(tmp_path, count):
    payload = {
        "group": {"kind": "su2"},
        "symbol": {"family": "weight_power", "alpha": -3.0},
        "task": "sweep",
        "schedule": {"start": 2, "factor": 2, "count": count},
    }
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "report.json")
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["value"] == {"re": 0.0, "im": 0.0} and report["error_bar"] == 0.0
    assert report["flags"] == [cli.SHORT_SWEEP_FLAG]
    assert len(open(report["series_path"]).read().strip().splitlines()) == count + 1


def test_short_weakl1_is_a_numerical_failure(tmp_path):
    # parse_config refuses this schedule; a RunConfig built by hand reaches the fit
    config = cli.RunConfig(
        group=SU2(),
        symbol_spec={"family": "weight_power", "alpha": -3.0},
        task="weakl1",
        schedule=[2.0, 4.0, 8.0],
    )
    out = tmp_path / "report.json"
    assert cli.run_task(config, str(out)) == 1
    report = json.loads(out.read_text())
    assert report["value"] is None and report["error_bar"] is None
    assert report["flags"][0].startswith("numerical failure: ") and "series_path" not in report


@pytest.mark.parametrize(
    "group, symbol",
    [
        ({"kind": "su2"}, {"family": "weight_power", "coeff_re": 1.5, "coeff_im": -0.5, "alpha": -3.0}),
        ({"kind": "torus", "n": 3}, {"family": "diag_signed", "alpha": -3.0}),
        ({"kind": "su2"}, {"family": "weight_power", "alpha": -1.0}),  # flagged: not of critical order
    ],
    ids=["su2", "t3-diag-signed", "flagged"],
)
def test_weakl1_and_sweep_report_the_same_abs_slope(tmp_path, group, symbol):
    payload = {"group": group, "symbol": symbol, "schedule": {"start": 4, "factor": 2, "count": 6}}
    cfg = _write_config(tmp_path, "cfg.json", payload)
    reports = {}
    for task in ("weakl1", "sweep"):
        out = tmp_path / f"{task}.json"
        cli.main([task, "--config", cfg, "--out", str(out)])
        # the reports differ only in the task name and the sweep's series path
        reports[task] = re.sub(r'  "(task|series_path)": .*\n', "", _mask_wall_time(out.read_text()))
    assert reports["weakl1"] == reports["sweep"]
    assert '"value": {' in reports["sweep"] and cli.SHORT_SWEEP_FLAG not in reports["sweep"]


def test_sweep_zero_symbol(tmp_path):
    payload = {
        "group": {"kind": "su2"},
        "symbol": {"family": "weight_power", "coeff_re": 0.0, "alpha": -3.0},
        "task": "sweep",
        "schedule": {"start": 2, "factor": 2, "count": 3},
    }
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "report.json")
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
    report = json.loads(open(out).read())
    lines = open(report["series_path"]).read().strip().splitlines()
    assert all(float(line.split(",")[2]) == 0.0 for line in lines[1:])


def test_sweep_torus_first_row(tmp_path):
    payload = {
        "group": {"kind": "torus", "n": 1},
        "symbol": {"family": "weight_power", "alpha": -1.0},
        "task": "sweep",
        "schedule": {"start": 2, "factor": 2, "count": 4},
    }
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "report.json")
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
    report = json.loads(open(out).read())
    first = open(report["series_path"]).read().strip().splitlines()[1]
    assert float(first.split(",")[2]) == pytest.approx(2.4142136, abs=1e-6)


def test_report_round_trips(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", SU2_WEAKL1)
    out = str(tmp_path / "report.json")
    cli.main(["weakl1", "--config", cfg, "--out", out])
    text = open(out).read()
    parsed = json.loads(text)
    assert cli.render_json(parsed) + "\n" == text


def test_reports_byte_identical_across_reruns_and_threads(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", TORUS_RESIDUE)
    texts = []
    for i in range(3):
        out = str(tmp_path / f"report_{i}.json")
        cli.main(["residue", "--config", cfg, "--out", out])
        texts.append(_mask_wall_time(open(out).read()))
    assert texts[0] == texts[1] == texts[2]


def test_series_csv_byte_stable(tmp_path):
    payload = {
        "group": {"kind": "torus", "n": 2},
        "symbol": {"family": "weight_power", "alpha": -2.0},
        "task": "sweep",
        "schedule": {"start": 4, "factor": 2, "count": 6},
    }
    cfg = _write_config(tmp_path, "cfg.json", payload)
    contents = []
    for i in range(2):
        out = str(tmp_path / f"r{i}.json")
        cli.main(["sweep", "--config", cfg, "--out", out])
        report = json.loads(open(out).read())
        contents.append(open(report["series_path"]).read())
    assert contents[0] == contents[1]


def test_diag_signed_family(tmp_path):
    payload = {
        "group": {"kind": "su2"},
        "symbol": {"family": "diag_signed", "alpha": -3.0},
        "task": "weakl1",
        "schedule": {"start": 16, "factor": 2, "count": 9},
    }
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "report.json")
    code = cli.main(["weakl1", "--config", cfg, "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    # absolute traces see the full mass regardless of the signs
    assert abs(report["value"]["re"] - 1.0) <= 0.02


def test_env_var_threads(monkeypatch):
    # sums run on the calling thread; the environment no longer picks a count
    monkeypatch.setenv("RESIDUE_THREADS", "8")
    assert cli.threads_from_environment() == 1


def test_threads_flag_is_a_usage_error(tmp_path):
    # an unknown task is a usage error too
    cfg = _write_config(tmp_path, "cfg.json", SU2_WEAKL1)
    for argv in (["weakl1", "--config", cfg, "--threads", "2"], ["bogus", "--config", cfg]):
        assert cli.main(argv) == 64


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["residue", "--help"]):
        assert cli.main(argv) == 0
        assert "usage: ncres" in capsys.readouterr().out


_RESULT_KEYS = ["config_echo", "task", "value", "error_bar"]


@pytest.mark.parametrize(
    "payload, code, keys",
    [
        (
            {
                "group": {"kind": "torus", "n": 1},
                "symbol": {"family": "weight_power", "alpha": -1.0},
                "task": "residue",
                "schedule": {"start": 16, "factor": 2, "count": 6},
                "cross_check": True,
            },
            0,
            _RESULT_KEYS + ["per_node", "cross_check", "flags", "wall_time_ms"],
        ),
        (
            {
                "group": {"kind": "su2"},
                "symbol": {"family": "weight_power", "alpha": -3.0},
                "task": "sweep",
                "schedule": {"start": 2, "factor": 2, "count": 6},
            },
            0,
            _RESULT_KEYS + ["series_path", "flags", "wall_time_ms"],
        ),
        (
            {
                "group": {"kind": "torus", "n": 1},
                "symbol": {"family": "weight_power", "alpha": -2.0},
                "task": "weakl1",
                "schedule": {"start": 16, "factor": 2, "count": 11},
            },
            2,
            _RESULT_KEYS + ["flags", "wall_time_ms"],
        ),
        (
            {
                "group": {"kind": "torus", "n": 1},
                "symbol": {"family": "weight_power", "alpha": -1.0},
                "task": "zeta",
                "zeta": {"s_schedule": [0.8, 0.4, 0.2], "tol": 1e-9, "max_cutoff": 64},
            },
            1,
            _RESULT_KEYS + ["flags", "wall_time_ms"],
        ),
    ],
    ids=["residue-cross-check", "sweep-series", "flagged", "numerical-failure"],
)
def test_report_keys_in_schema_order(tmp_path, payload, code, keys):
    cfg = _write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "report.json")
    assert cli.main([payload["task"], "--config", cfg, "--out", out]) == code
    assert list(json.loads(open(out).read())) == keys


def test_class_poly_modulation(tmp_path, su2):
    a = cli.build_modulation(su2, {"kind": "class_poly", "coefficients": [1.0, 2.0]})
    rule = su2.haar_quadrature(4)
    from ncresidue import su2_class_cosine

    for node in rule.nodes:
        assert a(node) == pytest.approx(1.0 + 2.0 * su2_class_cosine(node))
