"""perfbench: end-to-end and per-layer measurements of permitsim.

One workload, the form in which `BENCHMARK.json`'s command is run:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, untraced then traced, with a summary and a
``perfbench/out/BENCH_<label>.json`` record:

    python3 perfbench/run.py [--seed N] [--seconds S] [--label LABEL]

A single-workload run attempts whole rounds of trials through
``run_experiment`` until ``--seconds`` have passed, keeping every
transcript on disk.  After the timed region it checks each trial with
``checks.py`` and re-runs the first round to check that the bytes repeat.
Its last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of ``BENCHMARK.json`` with ``--trace 1``.  The
lines before it list every trial's transcript digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from pace import REFERENCE_PACE_S, pace_seconds
from spans import Tracer
from workloads import ROOT, WORKLOADS, ProgramMissing, Workload, load_permitsim

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
# set-up probes per untraced run: half before the timed rounds, half after,
# so that the median spans the run rather than one moment of the machine
SETUP_PROBES = 16
# boundaries that only the output checks call
CHECKER_BOUNDARIES = ("transcript.from_lines",)


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# measuring one workload
# ---------------------------------------------------------------------------


@dataclass
class Round:
    index: int
    seed_base: int
    directory: Path
    seconds: float
    pace: float  # pace_seconds around the round: mean of before and after
    report: dict | None
    error: str | None
    mark: tuple | None  # tracer position at the end of the round


def measure_setup(workload: Workload, probes: int) -> list[tuple[float, float]]:
    """(seconds, pace) per probe: the seconds a fresh interpreter takes
    from its first statement to its first trial being ready to start, and
    ``pace_seconds`` in the same interpreter right after."""
    samples = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name],
            capture_output=True, text=True)
        fields = out.stdout.split()
        if out.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
            raise RuntimeError(f"set-up probe exited with {out.returncode}: "
                               f"{out.stderr.strip()[-300:]}")
        samples.append((float(fields[1]), float(fields[2])))
    return samples


def timed_rounds(workload: Workload, run_seed: int, seconds: float,
                 run_dir: Path, experiment, tracer: Tracer | None) -> list[Round]:
    rounds: list[Round] = []
    start = time.perf_counter()
    pace = pace_seconds()
    while True:
        k = len(rounds)
        seed_base = workload.trial_seed(run_seed, k * workload.round_trials)
        directory = run_dir / f"round-{k}"
        spec = experiment.ExperimentSpec(
            scenario=workload.scenario, trials=workload.round_trials,
            seed_base=seed_base, params=dict(workload.params),
            output_dir=str(directory), retain_transcripts=True)
        t0 = time.perf_counter()
        try:
            report, error = experiment.run_experiment(spec), None
        except Exception as exc:  # the round's trials count as failed
            report, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        mark = tracer.mark() if tracer else None
        after = pace_seconds()
        rounds.append(Round(k, seed_base, directory, t1 - t0,
                            (pace + after) / 2, report, error, mark))
        pace = after
        if time.perf_counter() - start >= seconds:
            return rounds


def check_rounds(workload: Workload, rounds: list[Round], permitsim):
    """Check every trial; returns (failures, digests, round-0 tallies)."""
    failures: dict[int, str] = {}
    digests: dict[int, list[str]] = {}
    tally = {"grants": 0, "blocks": 0, "slot_steps": 0, "bytes": 0}
    for rnd in rounds:
        seeds = range(rnd.seed_base, rnd.seed_base + workload.round_trials)
        if rnd.error is not None:
            failures.update({s: rnd.error for s in seeds})
            continue
        by_seed: dict[int, list] = {}
        for path in sorted((rnd.directory / "transcripts").glob("*.jsonl")):
            data = path.read_bytes()
            try:
                rec = checks.parse(data)
            except Exception as exc:  # an unreadable file fails its round
                failures.update({s: f"{path.name}: {exc!r}" for s in seeds})
                continue
            by_seed.setdefault(rec.seed, []).append(rec)
            if rnd.index == 0:
                tally["grants"] += len(rec.grants)
                tally["blocks"] += len(rec.parent) - 1
                tally["slot_steps"] += rec.duration * len(rec.header["roster"])
                tally["bytes"] += len(data)
        for result in rnd.report["results"]:
            seed = result["seed"]
            digests[seed] = sorted(v for k, v in result.items()
                                   if k.endswith("_sha256") and v)
            if seed in failures:
                continue
            try:
                checks.check_trial(workload.scenario, result,
                                   by_seed.get(seed, []), permitsim)
            except checks.CheckFailure as exc:
                failures[seed] = str(exc)
            except Exception as exc:  # a check that cannot run fails the trial
                failures[seed] = repr(exc)
    return failures, digests, tally


def layer_metrics(workload: Workload, tracer: Tracer, rounds: list[Round],
                  timed: dict, checked: dict, tally: dict,
                  overhead: float) -> dict[str, float]:
    """Self times per trial over every round; counts per trial over the
    first round, so that they repeat exactly for a seed."""
    trials = len(rounds) * workload.round_trials
    per_round = workload.round_trials
    first = tracer.aggregate(0, rounds[0].mark[0])
    counts0 = rounds[0].mark[1]

    def self_s(*names):
        return sum(timed.get(n, (0, 0.0))[1] for n in names) / trials

    def calls(name):
        return first.get(name, (0, 0.0))[0] / per_round

    def ratio(num, den):
        return num / den if den else 0.0

    covers = counts0.get("permitter.covers", 0)
    return {
        "engine.run_execution.self_s": self_s("engine.run_execution"),
        "engine.slot_steps": tally["slot_steps"] / per_round,
        "engine.validate_broadcast.self_s": self_s("engine.validate_broadcast"),
        "engine.validate_broadcast.calls": calls("engine.validate_broadcast"),
        "permitter.respond.self_s": self_s("permitter.respond"),
        "permitter.respond.calls": calls("permitter.respond"),
        "permitter.grants_per_request": ratio(
            tally["grants"], calls("permitter.respond") * per_round),
        "permitter.covers.calls": covers / per_round,
        "permitter.covers_per_broadcast": ratio(
            covers, calls("engine.validate_broadcast") * per_round),
        "rng.substream_u64.self_s": self_s("rng.substream_u64"),
        "rng.substream_u64.calls": calls("rng.substream_u64"),
        "resource_pool.self_s": self_s("resource_pool.balance_of",
                                       "resource_pool.total"),
        "resource_pool.balance_of.calls": calls("resource_pool.balance_of"),
        "resource_pool.total.calls": calls("resource_pool.total"),
        "messages.make_block.self_s": self_s("messages.make_block"),
        "messages.make_block.calls": calls("messages.make_block"),
        "messages.body_digest.self_s": self_s("messages.body_digest"),
        "messages.body_digest.calls": calls("messages.body_digest"),
        "blocktree.index_add.self_s": self_s("blocktree.index_add"),
        "blocktree.index_add.calls": calls("blocktree.index_add"),
        "blocktree.view_add.self_s": self_s("blocktree.view_add"),
        "blocktree.view_add.calls": calls("blocktree.view_add"),
        "blocktree.view_adds_per_block": ratio(
            calls("blocktree.view_add") * per_round, tally["blocks"]),
        "blocktree.ancestor_at_height.self_s": self_s(
            "blocktree.ancestor_at_height"),
        "blocktree.ancestor_at_height.calls": calls(
            "blocktree.ancestor_at_height"),
        "network.delivery_slot.self_s": self_s("network.delivery_slot"),
        "network.delivery_slot.calls": calls("network.delivery_slot"),
        "protocols.strategy.self_s": self_s("protocols.strategy"),
        "strategy.hooks.self_s": self_s("protocols.strategy",
                                        "adversary.strategy"),
        "adversary.strategy.calls": calls("adversary.strategy"),
        "protocols.tracker.self_s": self_s("protocols.tracker"),
        "protocols.tracker.calls": calls("protocols.tracker"),
        "analysis.self_s": self_s("analysis.verify_transcript_invariants",
                                  "analysis.check_security",
                                  "analysis.measure_liveness"),
        "analysis.verify_transcript_invariants.calls": calls(
            "analysis.verify_transcript_invariants"),
        "analysis.check_security.calls": calls("analysis.check_security"),
        "analysis.measure_liveness.calls": calls("analysis.measure_liveness"),
        "transcript.to_bytes.self_s": self_s("transcript.to_bytes"),
        "transcript.bytes": tally["bytes"] / per_round,
        "transcript.from_lines.self_s": (
            checked.get("transcript.from_lines", (0, 0.0))[1] / trials),
        "experiment.run_experiment.self_s": self_s("experiment.run_experiment"),
        "trace.overhead_ratio": overhead,
    }


def silent_boundaries(workload: Workload, timed: dict, timed_counts: dict,
                      checked: dict) -> list[str]:
    """Boundaries of the workload that its trials never called.  Only
    ``CHECKER_BOUNDARIES`` are looked for in the check phase, which calls
    some of the others itself."""
    seen = {n for n, (calls, _s) in timed.items() if calls}
    seen.update(n for n, c in timed_counts.items() if c)
    seen.update(n for n in CHECKER_BOUNDARIES if checked.get(n, (0, 0.0))[0])
    return [b for b in workload.boundaries if b not in seen]


def rerun(experiment, workload: Workload, first: Round,
          problems: list[str]) -> float:
    """Run the first round again without saving transcripts and return its
    seconds; a report that differs from the first's, or an error, is added
    to ``problems``."""
    t0 = time.perf_counter()
    try:
        again = experiment.run_experiment(experiment.ExperimentSpec(
            scenario=workload.scenario, trials=workload.round_trials,
            seed_base=first.seed_base, params=dict(workload.params)))
    except Exception as exc:  # reported like a changed report
        problems.append(f"re-running the first round raised "
                        f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    if (first.report is None or experiment.canonical_report_bytes(again)
            != experiment.canonical_report_bytes(first.report)):
        problems.append("re-running the first round changed its report")
    return seconds


def run_workload(workload: Workload, run_seed: int, seconds: float,
                 traced: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, details)."""
    permitsim = load_permitsim()
    from permitsim import experiment

    wanted = declared()["per_layer" if traced else "end_to_end"]
    run_dir = OUT / f"{workload.name}-s{run_seed}-t{int(traced)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    problems: list[str] = []

    setup = [] if traced else measure_setup(workload, SETUP_PROBES // 2)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    rounds = timed_rounds(workload, run_seed, seconds, run_dir, experiment,
                          tracer)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if not traced:
        setup += measure_setup(workload, SETUP_PROBES - len(setup))
    attempted = len(rounds) * workload.round_trials

    check_lo = tracer.mark()[0] if tracer else 0
    failures, digests, tally = check_rounds(workload, rounds, permitsim)
    if tracer:
        tracer.uninstall()
        timed = tracer.aggregate(0, rounds[-1].mark[0])
        checked = tracer.aggregate(check_lo, tracer.mark()[0])
        problems += [f"traced run recorded no call of {b}" for b in
                     silent_boundaries(workload, timed, rounds[-1].mark[1],
                                       checked)]

    # Re-run the first round untraced: its report must repeat byte for
    # byte.  A traced run then re-runs it traced as well, which checks that
    # tracing changes no transcript and gives the overhead from a pair of
    # back-to-back runs.
    first = rounds[0]
    rerun_s = rerun(experiment, workload, first, problems)
    if traced:
        tracer.install()
        traced_s = rerun(experiment, workload, first, problems)
        tracer.uninstall()
        metrics = layer_metrics(workload, tracer, rounds, timed, checked,
                                tally, traced_s / rerun_s)
        tracer.write(OUT / f"{workload.name}.spans")
    else:
        metrics = {
            "trials_per_s": attempted / sum(
                r.seconds * REFERENCE_PACE_S / r.pace for r in rounds),
            "peak_rss_mb": peak_kb / 1024,
            "setup_s": statistics.median(
                seconds * REFERENCE_PACE_S / pace for seconds, pace in setup),
        }
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise RuntimeError(f"BENCHMARK.json declares {sorted(units)}, "
                           f"the run measured {sorted(metrics)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    details = {
        "workload": workload.name, "seed": run_seed, "seconds": seconds,
        "trace": int(traced), "params": workload.params,
        "round_trials": workload.round_trials,
        "rounds": [{"seed_base": r.seed_base, "seconds": r.seconds,
                    "pace": r.pace,
                    "error": r.error} for r in rounds],
        "wall_trials_per_s": attempted / sum(r.seconds for r in rounds),
        "rerun_seconds": rerun_s, "setup_samples": setup,
        "problems": problems, "failures": failures,
        "digests": {str(s): d for s, d in sorted(digests.items())},
        "result": result,
    }
    if not failures:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result, details


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_all(seed: int, seconds: float, label: str) -> int:
    record = {"label": label, "git_sha": git_sha(),
              "python": platform.python_version(),
              "cpu_count": len(os.sched_getaffinity(0)),
              "seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        entry = record["workloads"][name] = {}
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(traced)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(out.stderr)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{name} --trace {traced}: exited {out.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            entry["traced" if traced else "untraced"] = result
            ok = ok and result["correct"] and not result["failed"]
        sides = [json.loads((OUT / f"{name}-s{seed}-t{t}.json").read_text())
                 for t in (0, 1)]
        common = set(sides[0]["digests"]) & set(sides[1]["digests"])
        same = all(sides[0]["digests"][s] == sides[1]["digests"][s]
                   for s in common)
        entry["traced_digests_match"] = same and bool(common)
        ok = ok and entry["traced_digests_match"]

    for name, entry in record["workloads"].items():
        print(f"\n== {name}  (traced digests match untraced: "
              f"{entry['traced_digests_match']})")
        for side in ("untraced", "traced"):
            result = entry.get(side)
            if result is None:
                continue
            print(f"  {side}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"    {metric:<44} {m['value']:>14.6g} {m['unit']}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"BENCH_{label}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"\nrecord written to {path}")
    print(json.dumps({"ok": ok, "record": str(path)}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench", description="measure permitsim end to end and by layer")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload (default: all, untraced "
                             "and traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="local",
                        help="names the BENCH_<label>.json record of a "
                             "run over every workload")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must not be negative")
    try:
        seconds = (args.seconds if args.seconds is not None
                   else declared()["run_seconds"])
        if args.workload is None:
            return run_all(args.seed, seconds, args.label)
        result, details = run_workload(WORKLOADS[args.workload], args.seed,
                                       seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    side = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    side.write_text(json.dumps(details, indent=2, sort_keys=True) + "\n")
    for seed, shas in details["digests"].items():
        print(f"digest {args.workload} seed={seed} " + " ".join(shas))
    for problem in details["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for seed, why in details["failures"].items():
        print(f"failed trial seed={seed}: {why}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
