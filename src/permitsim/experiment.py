"""Batch experiments: specs, trial loops, reports.

An experiment names a scenario, a trial count, a base seed and parameter
overrides.  Trial ``i`` runs with seed ``seed_base + i``; every source of
randomness inside a trial is derived from that seed, so a report —
including the sha256 digest of every transcript produced — is a pure
function of the spec.  The ``generated_at`` stamp is the one exception,
and `canonical_report_bytes` strips it for comparisons.

Specs load from YAML (or plain dicts) with strict key checking: unknown
keys anywhere are errors naming the offending path, because a silently
ignored parameter in a measurement config is worse than a crash.

Because a trial is a pure function of its seed, `run_trials` may run the
trials of one experiment in several processes: the caller forks a worker
per spare CPU, deals the trials round-robin, runs its own share and puts
the rows back in trial order.  The number of processes (``jobs``) is
therefore not part of the spec and not recorded in the report; the
report, ``results.csv`` and every retained transcript are byte-identical
for every ``jobs``.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError

_SPEC_KEYS = {"scenario", "trials", "seed_base", "params", "output", "label"}
_OUTPUT_KEYS = {"directory", "retain_transcripts"}


@dataclass
class ExperimentSpec:
    scenario: str
    trials: int = 1
    seed_base: int = 0
    params: dict = field(default_factory=dict)
    output_dir: str | None = None
    retain_transcripts: bool = False
    label: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.seed_base < 0:
            raise ConfigError("seed_base cannot be negative")
        if self.retain_transcripts and self.output_dir is None:
            raise ConfigError("retained transcripts need an output directory "
                              "(output.directory or --out)")

    @classmethod
    def from_dict(cls, data: dict, source: str = "spec") -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ConfigError(f"{source}: expected a mapping")
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise ConfigError(f"{source}: unknown keys {sorted(unknown)}")
        if "scenario" not in data:
            raise ConfigError(f"{source}: missing required key 'scenario'")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{source}.params: expected a mapping")
        output = data.get("output", {}) or {}
        if not isinstance(output, dict):
            raise ConfigError(f"{source}.output: expected a mapping")
        unknown = set(output) - _OUTPUT_KEYS
        if unknown:
            raise ConfigError(f"{source}.output: unknown keys {sorted(unknown)}")
        for name, value in (("output.directory", output.get("directory")),
                            ("label", data.get("label"))):
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{source}.{name}: expected a string, "
                                  f"got {value!r}")
        return cls(
            scenario=str(data["scenario"]),
            trials=_integer(data.get("trials", 1), f"{source}.trials"),
            seed_base=_integer(data.get("seed_base", 0), f"{source}.seed_base"),
            params=dict(params),
            output_dir=output.get("directory"),
            retain_transcripts=_coerce(output.get("retain_transcripts", False),
                                       False,
                                       f"{source}.output.retain_transcripts"),
            label=data.get("label"),
        )

    @classmethod
    def from_yaml(cls, path) -> "ExperimentSpec":
        import yaml  # only spec files need it; keeps it out of the import

        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read the spec file "
                              f"({exc.strerror or exc})") from None
        except (UnicodeDecodeError, yaml.YAMLError) as exc:
            mark = getattr(exc, "problem_mark", None)
            where = (f" at line {mark.line + 1}, column {mark.column + 1}"
                     if mark is not None else "")
            problem = getattr(exc, "problem", None) or exc
            raise ConfigError(f"{path}: not a valid YAML spec "
                              f"({problem}{where})") from None
        return cls.from_dict(data, source=str(path))


class Scenario:
    """One repeatable measurement; subclasses define trials and summary."""

    name = "abstract"
    summary = ""
    defaults: dict = {}

    def resolve_params(self, overrides: dict) -> dict:
        params = dict(self.defaults)
        for key, value in overrides.items():
            if key not in params:
                raise ConfigError(
                    f"scenario {self.name!r} has no parameter {key!r}; "
                    f"known: {sorted(params)}")
            params[key] = _coerce(value, params[key], f"params.{key}")
        return params

    def run_trial(self, params: dict, seed: int,
                  transcript_dir: Path | None = None) -> dict:
        raise NotImplementedError

    def aggregate(self, results: list[dict], params: dict) -> dict:
        return {}


def _integer(value, path: str) -> int:
    """An integral config value as an int: an int, an integral float or a
    decimal string; a bool or a fraction is refused, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{path}: expected an integer, got {value!r}")


def _coerce(value, default, path: str):
    """Coerce an override (possibly a CLI string) to the default's type."""
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    if isinstance(default, int) and not isinstance(default, bool):
        return _integer(value, path)
    if isinstance(default, float):
        if isinstance(value, bool):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        try:
            return float(Fraction(value) if isinstance(value, str) else value)
        except (TypeError, ValueError, ZeroDivisionError):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
    if isinstance(default, str):
        return str(value)
    if isinstance(default, list):
        if isinstance(value, str):
            value = [v for v in value.split(",") if v != ""]
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if default and value:
            return [_coerce(v, default[0], path) for v in value]
        return list(value)
    return value


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_trials(scenario: Scenario, params: dict, seeds, transcript_dir=None,
               jobs: int | None = None) -> list[dict]:
    """``scenario.run_trial(params, seed, transcript_dir)`` for each seed,
    in seed order, in up to ``jobs`` processes.

    ``jobs=None`` means one process per usable CPU, and never more than
    there are trials.  With one job, or where ``os.fork`` is missing, the
    trials run one after another in this process.  Otherwise this
    process forks ``jobs - 1`` children and deals the trials round-robin:
    trial ``i`` runs in worker ``i % jobs``, and worker 0 is the caller,
    so whatever instruments the caller still sees trial calls.  A child
    pickles its rows, or its first exception with that trial's index,
    into a pipe and leaves with ``os._exit``.  The caller must not be
    running other threads when it forks.

    As in a serial loop, the error raised is the one of the lowest-index
    failing trial.  A child that dies without a result raises a
    ``RuntimeError`` naming its seeds.  No child outlives the call.
    """
    seeds = list(seeds)
    if jobs is None:
        jobs = usable_cpus()
    elif jobs < 1:
        raise ConfigError("jobs must be at least 1")
    jobs = min(jobs, len(seeds))
    if jobs <= 1 or not hasattr(os, "fork"):
        return [scenario.run_trial(params, seed, transcript_dir)
                for seed in seeds]
    return _run_forked(scenario, params, seeds, transcript_dir, jobs)


def _run_forked(scenario, params, seeds, transcript_dir, jobs):
    import pickle
    import signal

    def share(worker):
        """(rows, None), or (rows before the failure, (index, exception))."""
        rows = []
        for i in range(worker, len(seeds), jobs):
            try:
                rows.append(scenario.run_trial(params, seeds[i],
                                               transcript_dir))
            except Exception as exc:
                return rows, (i, exc)
        return rows, None

    def sendable(outcome):
        rows, failure = outcome
        if failure is not None:
            index, exc = failure
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            failure = index, exc
        return rows, failure

    # flushed so that no child writes out the caller's buffered output
    sys.stdout.flush()
    sys.stderr.flush()
    readers = {}  # worker -> the read end of its pipe
    pids = {}     # worker -> pid, until the child is reaped
    try:
        for worker in range(1, jobs):
            read_fd, write_fd = os.pipe()
            readers[worker] = os.fdopen(read_fd, "rb")
            try:
                pid = os.fork()
            except OSError:
                os.close(write_fd)
                raise
            if pid == 0:  # the child: run its share, send it, leave
                status = 1
                try:
                    for reader in readers.values():
                        reader.close()
                    outcome = sendable(share(worker))
                    with os.fdopen(write_fd, "wb") as fh:
                        pickle.dump(outcome, fh, pickle.HIGHEST_PROTOCOL)
                    sys.stdout.flush()
                    sys.stderr.flush()
                    status = 0
                finally:
                    os._exit(status)
            pids[worker] = pid
            os.close(write_fd)

        outcomes = {0: share(0)}
        for worker in range(1, jobs):
            failed = [f[0] for _, f in outcomes.values() if f is not None]
            if failed and min(failed) < worker:
                break  # the rest ran only later trials; killed below
            with readers[worker] as reader:
                data = reader.read()
            _, status = os.waitpid(pids.pop(worker), 0)
            try:
                outcomes[worker] = pickle.loads(data)
            except Exception:  # nothing, or a cut-off result
                outcomes[worker] = [], (worker, RuntimeError(
                    f"worker process for seeds {seeds[worker::jobs]} "
                    f"exited with status {os.waitstatus_to_exitcode(status)} "
                    f"without a result"))
    finally:
        for reader in readers.values():
            reader.close()
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    failures = [f for _, f in outcomes.values() if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    rows = [None] * len(seeds)
    for worker, (worker_rows, _) in outcomes.items():
        rows[worker::jobs] = worker_rows
    return rows


def run_experiment(spec: ExperimentSpec, *, jobs: int | None = None) -> dict:
    """Run the spec's trials and build its report; ``jobs`` is passed to
    `run_trials` and changes nothing in the report."""
    from .scenarios import get_scenario  # local import; scenarios import us

    scenario = get_scenario(spec.scenario)
    params = scenario.resolve_params(spec.params)

    transcript_dir = None
    if spec.output_dir is not None and spec.retain_transcripts:
        transcript_dir = Path(spec.output_dir) / "transcripts"
        transcript_dir.mkdir(parents=True, exist_ok=True)

    seeds = [spec.seed_base + trial for trial in range(spec.trials)]
    rows = run_trials(scenario, params, seeds, transcript_dir, jobs)
    results = [{"trial": trial, "seed": seed, **row}
               for trial, (seed, row) in enumerate(zip(seeds, rows))]

    report = {
        "label": spec.label or scenario.name,
        "scenario": scenario.name,
        "trials": spec.trials,
        "seed_base": spec.seed_base,
        "params": _jsonable(params),
        "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "results": results,
        "aggregate": scenario.aggregate(results, params),
    }

    if spec.output_dir is not None:
        out = Path(spec.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(report, out)
    return report


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def canonical_report_bytes(report: dict) -> bytes:
    """Report serialization with the wall-clock stamp removed."""
    trimmed = {k: v for k, v in report.items() if k != "generated_at"}
    return json.dumps(_jsonable(trimmed), sort_keys=True,
                      separators=(",", ":")).encode()


def write_report(report: dict, directory: Path) -> None:
    directory = Path(directory)
    with open(directory / "report.json", "w", encoding="utf-8") as fh:
        json.dump(_jsonable(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    results = report.get("results", [])
    if results:
        columns: list[str] = []
        for row in results:
            for key in row:
                if key not in columns and _csv_cell_ok(row[key]):
                    columns.append(key)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in results:
            writer.writerow([_csv_cell(row.get(c)) for c in columns])
        with open(directory / "results.csv", "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())


def _csv_cell_ok(value) -> bool:
    return isinstance(value, (str, int, float, bool)) or value is None


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value
