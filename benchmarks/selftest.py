"""Self-test: every workload at tiny size, both modes; every named metric with its unit.

    python3 benchmarks/selftest.py

Exits 0 when each run's last line is a correct result that carries exactly
the metrics BENCHMARK.json names for its mode, each a finite number with the
declared unit.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            label = f"{workload['name']} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload["name"],
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            problems = _problems(proc, expected[trace])
            print(f"{'ok  ' if not problems else 'FAIL'} {label}")
            failures += [f"{label}: {p}" for p in problems]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


def _problems(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"not correct: {proc.stderr[-500:]}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
