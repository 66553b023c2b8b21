"""One benchmark process: set up a workload, report readiness, time its body.

Started by run.py, never by hand. The process imports the package from the
checkout's ``src``, builds the workload's inputs and prints ``ready``; run.py
times process start to that line as set-up. With ``--setup-only`` it stops
there. Otherwise it runs the workload body repeatedly for ``--seconds``,
checks every output against the correctness gate, and prints one JSON line
with the per-body wall times, operation counts, peak RSS and environment.
With ``--trace 1`` a first third of the time runs untraced and the rest
under the span recorder, which adds the per-layer split.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gate
from metrics import FUNCTIONS, LAYER_NAMES, per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

PRESET_SMOKE_STEPS = 481
LONG_SWEEP_ARGS = {
    "gamma1": 1.5, "gamma2": 0.5, "theta": 0.5, "lambda": 0.05, "k": 0.8,
    "t-max": 600.0, "steps": 24000, "basis": "ground-first",
}
LONG_SWEEP_SMOKE_STEPS = 2401
CHECK_SIZES = {"cptp": 1000, "oracle": 100, "inequality": 1000}
CHECK_SMOKE_SIZES = {"cptp": 100, "oracle": 10, "inequality": 100}
MAX_REPORTED_FAILURES = 20


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qutrit_eur

    if not Path(qutrit_eur.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"qutrit_eur was imported from {qutrit_eur.__file__}, not from {src}")
    return qutrit_eur


def shortened(t_max: float, steps: int, new_steps: int) -> tuple[float, int]:
    """The first new_steps samples of a uniform grid, at the same spacing."""
    return t_max * (new_steps - 1) / (steps - 1), new_steps


class Presets:
    """The 12 figure panels; one body is one panel through the full pipeline."""

    ops_per_body = 1

    def __init__(self, pkg, seed: int, smoke: bool, scratch: Path):
        from qutrit_eur import experiment

        self.ex = experiment
        configs = [experiment.figure_preset(name) for name in experiment.PRESET_NAMES]
        self.samples_per_body = PRESET_SMOKE_STEPS if smoke else configs[0].steps
        self.order = random.Random(seed).sample(list(experiment.PRESET_NAMES), len(experiment.PRESET_NAMES))
        self.smoke = smoke
        self.scratch = scratch
        pkg.spin1_observable("x")
        pkg.spin1_observable("z")

    def prepare(self, i: int):
        return self.order[i % len(self.order)], self.scratch / f"presets_{i}.csv"

    def body(self, prepared):
        name, csv = prepared
        ex = self.ex
        cfg = ex.figure_preset(name)
        if self.smoke:
            t_max, steps = shortened(cfg.t_max, cfg.steps, PRESET_SMOKE_STEPS)
            cfg = dataclasses.replace(cfg, t_max=t_max, steps=steps)
        records = ex.run_sweep(cfg)
        summary = ex.summarize(records)
        ex.emit_csv(records, csv, cfg, note=f"preset={name}")
        ex.write_summary(summary, f"{csv}.summary.txt")
        return cfg, records, summary

    def verify(self, prepared, outcome) -> list[str]:
        name, csv = prepared
        cfg, records, summary = outcome
        errors = gate.record_errors(records)
        errors += gate.csv_errors(csv, self.reference[name], cfg.steps, invariants=False)
        errors += gate.summary_errors(summary, records)
        _remove(csv, Path(f"{csv}.summary.txt"))
        return [f"{name}: {e}" for e in errors]


class LongSweep:
    """One long ground-first sweep through the command-line entry point."""

    ops_per_body = 1

    def __init__(self, pkg, seed: int, smoke: bool, scratch: Path):
        from qutrit_eur import cli

        self.cli = cli
        args = dict(LONG_SWEEP_ARGS)
        if smoke:
            args["t-max"], args["steps"] = shortened(args["t-max"], args["steps"], LONG_SWEEP_SMOKE_STEPS)
        self.samples_per_body = args["steps"]
        self.argv = ["sweep"] + [x for key, value in args.items() for x in (f"--{key}", str(value))]
        self.scratch = scratch
        pkg.spin1_observable("x")
        pkg.spin1_observable("z")

    def prepare(self, i: int):
        return self.scratch / f"long_sweep_{i}.csv"

    def body(self, csv):
        return self.cli.main(self.argv + ["--out", str(csv)])

    def verify(self, csv, code) -> list[str]:
        if code != 0:
            return [f"long_sweep: exit code {code}"]
        summary = Path(f"{csv}.summary.txt")
        errors = gate.csv_errors(csv, self.reference["long_sweep"], self.samples_per_body, invariants=True)
        if not summary.is_file():
            errors.append(f"long_sweep: no summary at {summary.name}")
        _remove(csv, summary)
        return [f"long_sweep: {e}" for e in errors]


class Check:
    """The three property suites behind the check command, on seed-driven draws."""

    ops_per_body = 3

    def __init__(self, pkg, seed: int, smoke: bool, scratch: Path):
        from qutrit_eur import experiment

        self.ex = experiment
        self.rng = random.Random(seed)
        self.sizes = CHECK_SMOKE_SIZES if smoke else CHECK_SIZES
        self.samples_per_body = sum(self.sizes.values())
        pkg.spin1_observable("x")
        pkg.spin1_observable("z")

    def prepare(self, i: int):
        return self.rng.getrandbits(32), self.rng.getrandbits(32)

    def body(self, seeds):
        ex, n = self.ex, self.sizes
        suites = (
            ("cptp", lambda: ex.check_cptp(n_draws=n["cptp"], seed=seeds[0])),
            ("oracle", lambda: ex.check_oracle(n_points=n["oracle"])),
            ("inequality", lambda: ex.check_uncertainty_inequality(n_draws=n["inequality"], seed=seeds[1])),
        )
        results = []
        for name, suite in suites:
            try:
                results.append((name, *suite()))
            except Exception as exc:  # one failing suite must not hide the others
                results.append((name, False, f"raised {exc!r}"))
        return results

    def verify(self, seeds, results) -> list[str]:
        return [f"check {name} (seeds {seeds}): {detail}" for name, ok, detail in results if not ok]


WORKLOADS = {"presets": Presets, "long_sweep": LongSweep, "check": Check}


def _remove(*paths: Path) -> None:
    for p in paths:
        p.unlink(missing_ok=True)


@dataclasses.dataclass
class Phase:
    times: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)
    failed: int = 0


def run_phase(workload, budget_s: float, start: int, tracer=None) -> Phase:
    """Run bodies until the next one would end past budget_s (at least one)."""
    phase = Phase()
    t_phase = perf_counter()
    i = start
    while True:
        prepared = workload.prepare(i)
        t0 = perf_counter()
        try:
            if tracer is None:
                outcome = workload.body(prepared)
            else:
                with tracer.body():
                    outcome = workload.body(prepared)
        except Exception as exc:  # a raising body is a failed operation, not a crash
            elapsed = perf_counter() - t0
            errors = [f"body {i} raised {exc!r}"] * workload.ops_per_body
        else:
            elapsed = perf_counter() - t0
            try:
                errors = workload.verify(prepared, outcome)
            except (OSError, ValueError) as exc:
                errors = [f"body {i}: output unreadable: {exc!r}"] * workload.ops_per_body
        phase.times.append(elapsed)
        phase.attempted += workload.ops_per_body
        phase.failed += min(len(errors), workload.ops_per_body)
        phase.failures += errors[: max(0, MAX_REPORTED_FAILURES - len(phase.failures))]
        i += 1
        if perf_counter() - t_phase + statistics.median(phase.times) > budget_s:
            return phase


def per_layer(tracer, traced: Phase, untraced: Phase) -> tuple[dict[str, float], dict]:
    """Per-body means of calls and self time, plus the attribution check."""
    agg = tracer.aggregate()
    bodies = len(traced.times)
    values = dict.fromkeys(per_layer_units(), 0.0)
    for name, stats in agg.items():
        if name == tracer.names[0]:
            continue
        layer = name.split(".", 1)[0]
        values[f"{layer}.calls"] += stats["calls"] / bodies
        values[f"{layer}.self_s"] += stats["self_s"] / bodies
        if f"{name}.calls" in values:
            values[f"{name}.calls"] = stats["calls"] / bodies
            values[f"{name}.self_s"] = stats["self_s"] / bodies
    values["numpy.eigvalsh.matrices"] = tracer.eig_matrices / bodies
    values["numpy.eigvalsh.n3_sum"] = tracer.eig_n3 / bodies
    values["trace.overhead_s"] = statistics.median(traced.times) - statistics.median(untraced.times)

    layer_total = sum(values[f"{layer}.self_s"] for layer in LAYER_NAMES) * bodies
    wall_total = sum(traced.times)
    check = {
        "layer_self_s_total": layer_total,
        "traced_wall_s_total": wall_total,
        "share": layer_total / wall_total,
        "ok": abs(layer_total - wall_total) <= 0.05 * wall_total,
        "functions_wrapped": sorted(tracer.functions),
        "functions_missing": [
            f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns
            if f"{layer}.{fn}" not in tracer.functions
        ],
    }
    return values, check


def environment() -> dict:
    """Interpreter, BLAS, thread settings, CPU and source revision of this run."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": cache_sizes(),
        "l3_note": "the L3 size is the host's, shared with other tenants; no grid here outgrows it",
        "git": git_state(),
    }


def cache_sizes() -> dict[str, str]:
    """Unified cache sizes of CPU 0 by level, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind == "Unified":
            sizes[f"L{level}"] = size
    return sizes


def git_state() -> dict:
    """Commit and dirtiness of the checkout; unknown outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {"commit": commit or "unknown", "dirty": None if status is None else bool(status)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", default=str(REFERENCE))
    args = parser.parse_args(argv)

    pkg = import_package()
    scratch = OUT / f"tmp_{os.getpid()}"
    workload = WORKLOADS[args.workload](pkg, args.seed, args.smoke, scratch)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workload.reference = gate.load_reference(args.reference)
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(pkg, workload, args)
    finally:
        for p in scratch.iterdir():
            p.unlink()
        scratch.rmdir()
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


def measure(pkg, workload, args) -> dict:
    if not args.trace:
        phase = run_phase(workload, args.seconds, 0)
        phases = [phase]
        result = {}
    else:
        from spans import Tracer

        untraced = run_phase(workload, args.seconds / 3, 0)
        tracer = Tracer(pkg)
        tracer.install()
        try:
            traced = run_phase(workload, args.seconds * 2 / 3, len(untraced.times), tracer)
        finally:
            tracer.uninstall()
        values, check = per_layer(tracer, traced, untraced)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans_{args.workload}.npz")
        phase, phases = traced, [untraced, traced]
        result = {"per_layer": values, "attribution": check, "untraced_times": untraced.times}
    result.update(
        times=phase.times,
        samples_per_body=workload.samples_per_body,
        attempted=sum(p.attempted for p in phases),
        failed=sum(p.failed for p in phases),
        failures=[f for p in phases for f in p.failures][:MAX_REPORTED_FAILURES],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


if __name__ == "__main__":
    raise SystemExit(main())
