import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_result_line.py"
_spec = importlib.util.spec_from_file_location("check_result_line", _SCRIPT)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

BENCHMARK = json.loads(check.BENCHMARK.read_text())


def _line(kind, **overrides):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCHMARK[kind]}
    metrics.update(overrides)
    return json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": metrics})


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_well_formed_lines_pass(kind):
    assert check.problems(_line(kind), BENCHMARK) == []


@pytest.mark.parametrize(
    "line, reason",
    [
        (_line("end_to_end", solve_s={"value": float("nan"), "unit": "s"}), "not strict JSON"),
        (_line("end_to_end", setup_s={"value": None, "unit": "s"}), "not a finite number"),
        (_line("end_to_end", peak_rss_mb={"value": 1.0, "unit": "GB"}), "declared 'MB'"),
        (
            _line("per_layer", **{"cli.threads": {"value": 0.0, "unit": "count", "absent": "x"}}),
            "cli.threads: expected exactly value and unit",
        ),
        (_line("per_layer").replace('"correct": true', '"correct": false'), "correct is False"),
        ('{"correct": true, "metrics": {"solve_s": {"value": 1.0, "unit": "s"}}}', "setup_s"),
    ],
)
def test_malformed_lines_fail(line, reason):
    found = check.problems(line, BENCHMARK)
    assert any(reason in p for p in found), found
