"""Run every workload over several seeds and write one BENCH_<label>.json.

    python3 perfbench/baseline.py --label seed --seeds 10

For each workload in BENCHMARK.json: one untraced run.py run per seed, then
one traced run. Prints, per workload, every end-to-end metric with its unit
as median [first quartile, third quartile] over the seeds, its spread
(quartile distance over median) against the metric's bound, and the
error_rate; then the top self-time entries of the traced run. Writes all
values, the per-layer split and the environment block to
``perfbench/results/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TOP = 12

sys.path.insert(0, str(HERE))
from metrics import LAYER_NAMES  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    path = HERE / "out" / f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report = {"label": args.label, "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        records = [run(name, seed, seconds, 0) for seed in seeds]
        traced = run(name, seeds[0], seconds, 1)
        attempted = sum(r["worker"]["attempted"] for r in records)
        failed = sum(r["worker"]["failed"] for r in records)
        e2e = {}
        print(f"{name}  ({w['why']})")
        for m in spec["end_to_end"]:
            q = quartiles([r["metrics"][m["name"]]["value"] for r in records])
            e2e[m["name"]] = dict(q, unit=m["unit"], bound=m["bound"])
            print(f"  {m['name']:<14} {q['median']:>12.6g} {m['unit']:<4} "
                  f"[{q['q1']:.6g}, {q['q3']:.6g}]  spread {q['spread']:.3f} (bound {m['bound']})")
        print(f"  {'error_rate':<14} {failed / attempted:>12.6g}      ({failed}/{attempted} operations failed)")
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        top = sorted((k for k in layer if k.endswith(".self_s") and k.count(".") == 2), key=lambda k: -layer[k])
        total = sum(layer[f"{n}.self_s"] for n in LAYER_NAMES)
        print(f"  traced (seed {seeds[0]}): top self time per body, of {total:.4g} s/op in all layers")
        for k in top[:TOP]:
            print(f"    {k:<48} {layer[k]:.6f} s/op  {layer[k] / total:6.1%}")
        print(f"    trace.overhead_s {layer['trace.overhead_s']:.4g} s")
        report["workloads"][name] = {
            "why": w["why"],
            "end_to_end": e2e,
            "error_rate": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "per_layer": layer,
            "attribution": traced["worker"]["attribution"],
            "top_self_s": top[:TOP],
        }
        report["env"] = traced["worker"]["env"]
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
