"""Command-line front end.

Exit codes: 0 on success, 1 when a run faults or a checked artifact
fails its checks, 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .analysis import (check_security, measure_liveness,
                       verify_transcript_invariants)
from .engine import Transcript
from .errors import ConfigError, ExecutionFault, TranscriptFormatError
from .experiment import ExperimentSpec, run_experiment
from .scenarios import SCENARIOS, HonestWorkLiveness, get_scenario


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ExecutionFault as exc:
        print(f"execution fault: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permitsim",
        description="simulate permissioning-oracle protocols and their attacks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenarios", help="list built-in scenarios")
    p.set_defaults(handler=_cmd_scenarios)

    p = sub.add_parser("run", help="run a scenario or an experiment spec")
    p.add_argument("--scenario", help="built-in scenario name")
    p.add_argument("--config", help="experiment spec (YAML)")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed-base", type=int, default=None)
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a scenario parameter")
    p.add_argument("--out", help="directory for report.json / results.csv")
    p.add_argument("--retain-transcripts", action="store_true",
                   help="also save every trial transcript under --out")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("validate",
                       help="check saved transcripts against the execution "
                            "model invariants")
    p.add_argument("transcripts", nargs="+", metavar="TRANSCRIPT")
    p.add_argument("--report-security", action="store_true",
                   help="also print confirmed-chain consistency and liveness")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("calibrate-ell",
                       help="fit the liveness-growth table from honest runs")
    p.add_argument("--trials", type=int, default=80)
    p.add_argument("--duration", type=int, default=600)
    p.add_argument("--seed-base", type=int, default=1000)
    p.add_argument("--eps-grid", default="0.5,0.25,0.1,0.05",
                   help="comma-separated error budgets to probe")
    p.add_argument("--out", help="output path (defaults to the packaged "
                                 "data file)")
    p.set_defaults(handler=_cmd_calibrate)
    return parser


# ---------------------------------------------------------------------------


def _cmd_scenarios(args) -> int:
    width = max(len(name) for name in SCENARIOS)
    for name in sorted(SCENARIOS):
        print(f"{name:<{width}}  {SCENARIOS[name].summary}")
    return 0


def _cmd_run(args) -> int:
    if bool(args.scenario) == bool(args.config):
        raise ConfigError("give exactly one of --scenario or --config")
    if args.config:
        spec = ExperimentSpec.from_yaml(args.config)
        if args.trials is not None or args.seed_base is not None or args.overrides:
            raise ConfigError("--trials/--seed-base/--set only apply with "
                              "--scenario; edit the spec file instead")
        if args.out:
            spec.output_dir = args.out
        if args.retain_transcripts:
            spec.retain_transcripts = True
    else:
        params = {}
        for item in args.overrides:
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            params[key] = value
        spec = ExperimentSpec(
            scenario=args.scenario,
            trials=args.trials if args.trials is not None else 1,
            seed_base=args.seed_base if args.seed_base is not None else 0,
            params=params,
            output_dir=args.out,
            retain_transcripts=args.retain_transcripts,
        )
    report = run_experiment(spec)
    json.dump({k: report[k] for k in ("label", "scenario", "trials",
                                      "seed_base", "aggregate")},
              sys.stdout, indent=2, default=str)
    print()
    if args.out:
        print(f"report written to {Path(args.out) / 'report.json'}",
              file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    failed = 0
    for path in args.transcripts:
        try:
            transcript = Transcript.load(path)
        except TranscriptFormatError as exc:
            print(f"{path}: malformed transcript: {exc}")
            failed += 1
            continue
        except OSError as exc:
            print(f"{path}: cannot read: {exc.strerror or exc}")
            failed += 1
            continue
        problems = verify_transcript_invariants(transcript)
        status = "ok" if not problems else f"{len(problems)} problem(s)"
        print(f"{path}: {status}")
        for problem in problems:
            print(f"  - {problem}")
            failed += 1
        if args.report_security:
            security = check_security(transcript)
            liveness = measure_liveness(transcript)
            print(f"  confirmed chains consistent: {security.ok} "
                  f"({len(security.violations)} violation(s)); "
                  f"minimal uniform liveness parameter: "
                  f"{liveness.minimal_uniform_ell}")
    return 1 if failed else 0


def _cmd_calibrate(args) -> int:
    eps_grid = sorted({float(x) for x in args.eps_grid.split(",") if x},
                      reverse=True)
    if not eps_grid or not all(0 < e < 1 for e in eps_grid):
        raise ConfigError("--eps-grid needs values in (0, 1)")
    if args.trials < 10:
        raise ConfigError("calibration needs at least 10 trials")

    scenario = HonestWorkLiveness()
    params = scenario.resolve_params({"duration": args.duration})
    ells = []
    for trial in range(args.trials):
        result = scenario.run_trial(params, args.seed_base + trial)
        ells.append(result["minimal_uniform_ell"])
    ells.sort()

    # empirical (1 - eps)-quantiles, then a least-squares log-form fit
    points = []
    for eps in eps_grid:
        idx = min(len(ells) - 1, max(0, math.ceil((1 - eps) * len(ells)) - 1))
        points.append((math.log(1 / eps), ells[idx]))
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denom = n * sxx - sx * sx
    a = (n * sxy - sx * sy) / denom if denom else 0.0
    b = (sy - a * sx) / n
    if a <= 0:
        # quantiles came out flat; keep a usable minimal slope
        a, b = 1.0, float(max(y for _, y in points))

    table = {
        "form": "log", "a": a, "b": b,
        "fitted_from": {
            "trials": args.trials, "duration": args.duration,
            "seed_base": args.seed_base,
            "quantiles": {f"{eps:g}": y
                          for eps, (_x, y) in zip(eps_grid, points)},
        },
    }
    if args.out:
        out = Path(args.out)
    else:
        out = Path(__file__).parent / "data" / "ell_table.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"fitted ell(eps) = {a:.3f} * ln(1/eps) + {b:.3f}  -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
