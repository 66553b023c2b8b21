"""Regenerate reference.json: every 48th CSV row of each preset panel and of long_sweep.

Run from the repository root with ``python3 perfbench/make_reference.py``.
The committed file was produced by the original per-sample sweep engine;
regenerate it only when the expected numbers change on purpose.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import gate
from worker import LONG_SWEEP_ARGS, REFERENCE, LongSweep, import_package


def reference_rows(csv: Path) -> list[list[float]]:
    """Every 48th data row of a sweep CSV (after its comment and header lines)."""
    lines = csv.read_text(encoding="utf-8").splitlines()[2:]
    return [[float(x) for x in line.split(",")] for line in lines[:: gate.REFERENCE_STRIDE]]


def main() -> None:
    pkg = import_package()
    from qutrit_eur import cli, experiment

    sweeps = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        csv = Path(tmp) / "sweep.csv"
        for name in experiment.PRESET_NAMES:
            cfg = experiment.figure_preset(name)
            experiment.emit_csv(experiment.run_sweep(cfg), csv, cfg)
            sweeps[name] = reference_rows(csv)
        if cli.main(LongSweep(pkg, 0, False, Path(tmp)).argv + ["--out", str(csv)]) != 0:
            raise SystemExit("long_sweep reference run failed")
        sweeps["long_sweep"] = reference_rows(csv)
    doc = {
        "columns": list(gate.COLUMNS),
        "stride": gate.REFERENCE_STRIDE,
        "long_sweep_args": LONG_SWEEP_ARGS,
        "sweeps": sweeps,
    }
    REFERENCE.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
