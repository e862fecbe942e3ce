"""Set-up probe: one fresh interpreter brought up to the first trial.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Imports permitsim, looks the workload's scenario up, resolves its
parameters and, where the scenario derives a certificate plan, builds
it; then prints ``ready``, the seconds all that took and the seconds
``pace.pace_seconds`` takes right after, and exits.  The clock starts
at this file's first statement, so the interpreter's own start-up
(``site`` and whatever ``.pth`` files the environment holds, no part of
permitsim) is left out of the figure.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402

from workloads import WORKLOADS, ProgramMissing, load_permitsim  # noqa: E402


def main() -> int:
    workload = WORKLOADS[sys.argv[1]]
    try:
        load_permitsim()
    except ProgramMissing as exc:
        print(f"setup probe: {exc}", file=sys.stderr)
        return 2
    from permitsim.scenarios import get_scenario

    scenario = get_scenario(workload.scenario)
    params = scenario.resolve_params(workload.params)
    if hasattr(scenario, "plan"):
        scenario.plan(params)
    seconds = perf_counter() - START
    from pace import pace_seconds

    print(f"ready {seconds!r} {pace_seconds()!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
