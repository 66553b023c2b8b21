"""Smoke test of the benchmark itself, on shortened inputs.

    python3 perfbench/smoke.py

For every workload, runs run.py with ``--smoke`` in both modes and checks
that the result line carries exactly the metric names and units listed in
BENCHMARK.json, that the results file reports error_rate, and that no
operation failed. Then it shows that the correctness gate bites: with one
reference value per sweep moved by 1e-6, the sweep workloads must report
failed operations and a nonzero error_rate. Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PERTURBATION = 1e-6


def run(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "5", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((OUT / f"BENCH_{workload}_seed7_trace{trace}.json").read_text(encoding="utf-8"))
    return result, record


def perturbed_reference() -> Path:
    doc = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    for rows in doc["sweeps"].values():
        rows[1][1] += PERTURBATION  # u_l of the second reference row (CSV row 48)
    path = OUT / "perturbed_reference.json"
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, record = run(workload, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected[trace].items()))[:6]}")
            if not (result["correct"] and result["failed"] == 0 and record["error_rate"] == 0):
                problems.append(f"{workload} trace {trace}: failed operations {record['worker']['failures']}")
            print(f"{workload} trace {trace}: {len(got)} metrics, error_rate {record['error_rate']}")

    bad = str(perturbed_reference())
    for workload in ("presets", "long_sweep"):
        result, record = run(workload, 0, "--reference", bad)
        bites = (not result["correct"] and result["failed"] > 0 and record["error_rate"] > 0
                 and all("reference" in f for f in record["worker"]["failures"]))
        print(f"{workload} with a reference value moved by {PERTURBATION:g}: "
              f"error_rate {record['error_rate']:.3g}, gate {'bites' if bites else 'DOES NOT BITE'}")
        if not bites:
            problems.append(f"{workload}: the gate missed a {PERTURBATION:g} reference perturbation")

    for p in problems:
        print(f"FAIL {p}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
