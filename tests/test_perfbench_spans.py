"""The benchmark's span table still names code that exists, and every
workload still crosses every boundary it lists.

``perfbench/spans.py`` wraps permitsim's layer boundaries by name.  A
deleted class breaks the table with an ``AttributeError``; a method moved
to a base class leaves its span with nothing to wrap, and the traced run
then records no call for it.  A boundary inlined away, or no longer on a
workload's path, also records no call, and perfbench's traced run then
reports ``correct: false``.  All of these show here instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from permitsim import experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load("spans")


WORKLOADS = load("workloads").WORKLOADS
# only perfbench's output checks call these, not the trials
CHECKER_BOUNDARIES = ("transcript.from_lines",)


@pytest.mark.parametrize("table", ["boundaries", "counted"])
def test_every_span_wraps_something(table):
    entries = getattr(load_spans(), table)()
    assert entries
    for name, targets in entries.items():
        assert targets, f"span {name!r} wraps nothing"
        for target in targets:
            if isinstance(target, tuple):
                cls, attr = target
                assert attr in vars(cls), f"{name}: {cls.__name__}.{attr}"
            else:
                assert callable(target), f"{name}: {target!r}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_round_crosses_every_boundary(name):
    workload = WORKLOADS[name]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        experiment.run_experiment(experiment.ExperimentSpec(
            scenario=workload.scenario, trials=workload.round_trials,
            params=dict(workload.params)), jobs=1)
    finally:
        tracer.uninstall()
    spans = tracer.aggregate(0, len(tracer.span_start))
    seen = {n for n, (calls, _self_s) in spans.items() if calls}
    seen.update(n for n, (count,) in tracer.counters.items() if count)
    silent = [b for b in workload.boundaries
              if b not in seen and b not in CHECKER_BOUNDARIES]
    assert not silent, f"{name} records no call of {silent}"
