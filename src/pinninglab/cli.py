"""Command-line driver: `pinninglab run` and `pinninglab acceptance`.

Exit codes: 0 success, 1 acceptance failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import acceptance as acc
from .errors import PinningLabError
from .experiments import run as run_experiment
from .records import VERSION, ExperimentConfig, _jsonable, write_csv


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    record = run_experiment(cfg, args.out)
    print(record.to_json())
    return 0


def _cmd_acceptance(args) -> int:
    numbers = set(args.criteria) if args.criteria else None
    results = acc.run_all(numbers=numbers)
    n_fail = sum(not r.passed for r in results)
    total = sum(r.seconds for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed "
          f"in {total:.1f}s")
    if args.dir:
        out = Path(args.dir)
        out.mkdir(parents=True, exist_ok=True)
        rows = [(r.number, r.name, "PASS" if r.passed else "FAIL",
                 round(r.seconds, 3), json.dumps(r.details, default=_jsonable))
                for r in results]
        write_csv(out / "acceptance.summary.csv",
                  ["number", "name", "status", "wall_time_s", "details"],
                  rows, {"version": VERSION, "suite": "acceptance"})
        (out / "acceptance.summary.json").write_text(json.dumps(
            [r.__dict__ for r in results], indent=2, default=_jsonable) + "\n")
    return 1 if n_fail else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pinninglab",
                                description="batch experiments for pinning-model numerics")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run one named experiment from a JSON config")
    pr.add_argument("--config", required=True, help="path to the JSON config")
    pr.add_argument("--out", default=None, help="output directory for record and CSVs")
    pr.add_argument("--seed", type=int, default=None, help="override the config seed")
    pr.set_defaults(func=_cmd_run)

    pa = sub.add_parser("acceptance", help="run the acceptance suite")
    pa.add_argument("--dir", default=None, help="directory for the summary table")
    pa.add_argument("--criteria", type=int, nargs="*", default=None,
                    help="subset of criterion numbers to run")
    pa.set_defaults(func=_cmd_acceptance)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PinningLabError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
