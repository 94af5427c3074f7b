#!/usr/bin/env python3
"""Strict check of the benchmark's result line, read from the last line of stdin.

    python3 perfbench/run.py --workload W --seed 1 --seconds 2 --trace T \
        | python3 scripts/check_result_line.py

The line must be JSON without NaN or Infinity, with ``"correct": true``.
Every metric that BENCHMARK.json declares for the run must be present as
exactly ``{"value": <finite number>, "unit": <the declared unit>}``; an
extra key such as ``absent`` fails the check.  An untraced run (``--trace
0``) reports the ``end_to_end`` metrics and a traced one the ``per_layer``
metrics, so a line naming any end-to-end metric is checked against
``end_to_end`` and any other line against ``per_layer``.  Exits 1 with the
reasons otherwise.
"""

import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def problems(line: str, benchmark: dict) -> list:
    try:
        result = json.loads(line, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"result line is not strict JSON: {exc}"]
    if not isinstance(result, dict):
        return ["result line is not a JSON object"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}, not true")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["no metrics object"]
    untraced = any(spec["name"] in metrics for spec in benchmark["end_to_end"])
    for spec in benchmark["end_to_end" if untraced else "per_layer"]:
        name = spec["name"]
        entry = metrics.get(name)
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            found.append(f"{name}: expected exactly value and unit, got {entry!r}")
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{name}: value {value!r} is not a finite number")
        if entry["unit"] != spec["unit"]:
            found.append(f"{name}: unit {entry['unit']!r}, declared {spec['unit']!r}")
    return found


def main() -> int:
    lines = sys.stdin.read().strip().splitlines()
    if not lines:
        print("check_result_line: no input", file=sys.stderr)
        return 1
    found = problems(lines[-1], json.loads(BENCHMARK.read_text()))
    for problem in found:
        print(f"check_result_line: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
