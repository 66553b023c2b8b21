"""Benchmark entry point: one workload, one seed, one measurement run.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 30 --trace 0

Workloads: ``presets`` (one of the 12 figure panels per body, 4800 samples),
``long_sweep`` (one 24000-sample ground-first sweep through the CLI) and
``check`` (the three property suites, 2100 points). Set-up is timed in
several fresh processes, from process start to the worker's ``ready`` line,
and reported as their median; the last of them then runs the workload body
for ``--seconds``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer split from the span recorder. Human-readable lines come first;
the last line of standard output is the JSON result. A results file with the
environment block is written to ``perfbench/out/``.

``--smoke`` shortens every input (for smoke.py); ``--reference`` swaps the
reference values (for showing that the gate bites).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("presets", "long_sweep", "check")
SETUP_PROCESSES = 7
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from metrics import END_TO_END, per_layer_units  # noqa: E402


class WorkerError(RuntimeError):
    pass


def start_worker(args, deadline: float, setup_only: bool):
    """Start a worker and time process start to its ready line.

    Returns the process, the watchdog that kills it at the deadline and
    the set-up seconds.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--reference", args.reference,
    ]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup_s = perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, watchdog)
        raise WorkerError(f"worker did not become ready (exit code {proc.returncode})")
    return proc, watchdog, setup_s


def finish(proc, watchdog) -> str:
    """Read the rest of a worker's output and wait for it to end."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    return rest


def measure(args) -> tuple[list[float], dict]:
    deadline = perf_counter() + DEADLINE_S
    setups = []
    for _ in range(SETUP_PROCESSES - 1):
        proc, watchdog, setup_s = start_worker(args, deadline, setup_only=True)
        finish(proc, watchdog)
        if proc.returncode != 0:
            raise WorkerError(f"set-up worker exited with code {proc.returncode}")
        setups.append(setup_s)
    proc, watchdog, setup_s = start_worker(args, deadline, setup_only=False)
    setups.append(setup_s)
    lines = finish(proc, watchdog).splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"benchmark worker exited with code {proc.returncode}")
    return setups, json.loads(lines[-1])


def end_to_end(setups: list[float], worker: dict) -> dict[str, float]:
    wall_s = statistics.median(worker["times"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "ms_per_sample": 1000.0 * wall_s / worker["samples_per_body"],
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shortened inputs, for the smoke test")
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="reference values to compare the sweeps with")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qutrit_eur" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'qutrit_eur'}", file=sys.stderr)
        return 2
    if not Path(args.reference).is_file():
        print(f"error: no reference values at {args.reference}", file=sys.stderr)
        return 2
    try:
        setups, worker = measure(args)
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = worker["attempted"], worker["failed"]
    error_rate = failed / attempted
    correct = failed == 0
    if args.trace:
        units, values = per_layer_units(), worker["per_layer"]
        attribution = worker["attribution"]
        correct = correct and attribution["ok"]
        print(f"{args.workload}: traced {len(worker['times'])} bodies; layer self time is "
              f"{attribution['share']:.1%} of traced wall time")
        top = sorted((k for k in values if k.endswith(".self_s") and k.count(".") == 2),
                     key=lambda k: -values[k])[:10]
        for k in top:
            print(f"  {k:<50} {values[k]:.6f} s/op")
    else:
        units, values = END_TO_END, end_to_end(setups, worker)
        print(f"{args.workload}: " + "  ".join(f"{k}={values[k]:.6g} {u}" for k, u in units.items()))
    print(f"{args.workload}: error_rate={error_rate:.6g} ({failed}/{attempted} operations failed)")
    for failure in worker["failures"]:
        print(f"  FAILED {failure}")

    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "error_rate": error_rate, "setup_samples_s": setups,
        "metrics": metrics, "worker": worker,
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
