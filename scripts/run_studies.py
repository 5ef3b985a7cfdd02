#!/usr/bin/env python3
"""Run the full study battery for one scenario file.

Each study lands in its own subdirectory of --out (report.json, tables,
scenario.txt, metadata.json), exactly as the CLI writes them; afterwards the
script prints a cross-study summary: Cauchy slopes with confidence intervals,
the worst moment-bound slack, and the uniqueness gaps.

    python3 scripts/run_studies.py scenarios/multiplicative_small.scn --out runs/demo

Exit code is the worst exit code any study returned (0 all green, 1 a check
failed, 2 usage, 3 numerics).
"""
import argparse
import json
import sys
import time
from pathlib import Path

from levypme.cli import STUDIES, main as cli_main


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", help="scenario file (key = value)")
    parser.add_argument("--out", required=True, help="parent output directory")
    parser.add_argument("--only", nargs="*", choices=tuple(STUDIES), default=None,
                        help="restrict to a subset of studies")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument("--paths", type=int, default=None, help="override path count")
    parser.add_argument("--step", type=float, default=None, help="override step size")
    return parser.parse_args()


def run_study(name, args, out_dir):
    argv = [name, "--scenario", args.scenario, "--out", str(out_dir)]
    for flag, value in (("--seed", args.seed), ("--paths", args.paths), ("--step", args.step)):
        if value is not None:
            argv += [flag, str(value)]
    started = time.perf_counter()
    code = cli_main(argv)
    return code, time.perf_counter() - started


def _fmt(value, spec):
    """Format a report number; ``null`` (a non-finite value) prints as n/a."""
    return "n/a" if value is None else format(value, spec)


def summarize(out_dir):
    report_file = out_dir / "report.json"
    if not report_file.exists():
        return "no report written"
    report = json.loads(report_file.read_text())
    bits = ["ok" if report["passed"] else "FAILED"]
    slope = report.get("slope")
    if slope:
        bits.append(
            f"slope {_fmt(slope['slope'], '.3f')} "
            f"[{_fmt(slope['ci_low'], '.3f')}, {_fmt(slope['ci_high'], '.3f')}]"
        )
    extra = report.get("extra", {})
    if "cells" in extra:
        slacks = [c["slack"] for c in extra["cells"] if c["slack"] is not None]
        bits.append(f"min moment-bound slack {_fmt(min(slacks, default=None), '.4g')}")
    if "sup_config_gap" in extra:
        bits.append(f"config gap {_fmt(extra['sup_config_gap'], '.2e')}")
        bits.append(f"perturbation rate net of jump budget {_fmt(extra['envelope_rate'], '.3g')} "
                    f"(headroom {_fmt(extra['rate_cap'], '.0e')})")
    if "final_norm_l2" in extra:
        bits.append(f"final |X|_2 = {_fmt(extra['final_norm_l2'], '.6g')}")
    return "; ".join(bits)


def main():
    args = parse_args()
    parent = Path(args.out)
    studies = args.only or tuple(STUDIES)

    worst = 0
    rows = []
    for name in studies:
        out_dir = parent / name.replace("-", "_")
        print(f"== {name} -> {out_dir}")
        code, seconds = run_study(name, args, out_dir)
        worst = max(worst, code)
        rows.append((name, code, seconds, out_dir))
        print()

    print("summary")
    print("-------")
    for name, code, seconds, out_dir in rows:
        print(f"{name:13s} exit {code}  {seconds:6.1f}s  {summarize(out_dir)}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
