"""Command-line interface: parameter sweeps, figure presets, and self-checks."""

from __future__ import annotations

import argparse
import re
import sys

from .channel import ChannelParams
from .experiment import (
    BASIS_CONVENTIONS,
    PRESET_NAMES,
    SweepConfig,
    emit_csv,
    figure_preset,
    run_self_check,
    run_sweep,
    summarize,
    write_summary,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutrit-eur",
        description="Entropic uncertainty dynamics of a qutrit pair under "
        "non-Markovian amplitude damping. All rates are in units of the bare "
        "decay rate gamma, times in units of 1/gamma.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run one sweep with explicit parameters")
    # read "-" followed by a digit, or by "." and a digit, as a number: argparse on
    # Python 3.10 and 3.11 takes only the -1 and -1.5 forms, so "--theta -1e-05"
    # read -1e-05 as an option and exited 2
    sweep._negative_number_matcher = re.compile(r"-\.?\d")
    sweep.add_argument("--gamma1", type=float, default=1.0, help="decay rate of the first excited level")
    sweep.add_argument("--gamma2", type=float, default=1.0, help="decay rate of the second excited level")
    sweep.add_argument("--theta", type=float, required=True, help="SGI alignment parameter in [-1, 1]")
    sweep.add_argument("--lambda", dest="lam", type=float, required=True, help="reservoir spectral width")
    sweep.add_argument("--k", type=float, required=True, help="isotropic-state mixing parameter in [0, 1]")
    sweep.add_argument("--t-max", type=float, required=True, help="end of the time grid")
    sweep.add_argument("--steps", type=int, required=True, help="number of grid samples (including endpoints)")
    sweep.add_argument("--basis", choices=BASIS_CONVENTIONS, default="kraus-order",
                       help="which computational index carries the ground level")
    sweep.add_argument("--out", required=True, help="output CSV path")

    figure = sub.add_parser("figure", help="run one of the preset reference panels")
    figure.add_argument("name", help=f"preset name, one of: {', '.join(PRESET_NAMES)}")
    figure.add_argument("--literal-lambda", action="store_true",
                        help="use the printed spectral width 1000 for fig2*/fig3* "
                        "instead of the period-consistent 0.001")
    figure.add_argument("--out", required=True, help="output CSV path")

    sub.add_parser("check", help="run the CPTP/oracle/inequality property suites")
    return parser


def _run_and_write(cfg: SweepConfig, out: str, note: str = "") -> None:
    rows = run_sweep(cfg)
    emit_csv(rows, out, cfg, note=note)
    write_summary(summarize(rows), f"{out}.summary.txt")
    print(f"wrote {len(rows)} records to {out} (summary: {out}.summary.txt)")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            cfg = SweepConfig(
                channel=ChannelParams(
                    gamma1=args.gamma1, gamma2=args.gamma2, theta=args.theta, lam=args.lam
                ),
                k=args.k,
                t_max=args.t_max,
                steps=args.steps,
                basis=args.basis,
            )
            _run_and_write(cfg, args.out)
        elif args.command == "figure":
            cfg = figure_preset(args.name, literal_lambda=args.literal_lambda)
            interpretation = "literal" if args.literal_lambda else "period-consistent"
            note = f"preset={args.name}"
            if args.name.startswith(("fig2", "fig3")):
                note += f" lambda-interpretation={interpretation}"
            _run_and_write(cfg, args.out, note=note)
        else:
            if not run_self_check():
                print("error: self-check failed", file=sys.stderr)
                return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
