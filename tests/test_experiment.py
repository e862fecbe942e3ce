"""Experiment specs, trial loops, and report serialization."""

import csv
import hashlib
import json
import os
import pickle
import time

import pytest

from permitsim import experiment
from permitsim.errors import ConfigError, ExecutionFault
from permitsim.experiment import (ExperimentSpec, Scenario,
                                  canonical_report_bytes, run_experiment,
                                  run_trials, write_report)
from permitsim.scenarios import SCENARIOS, get_scenario


SMALL = {"scenario": "honest_work_liveness",
         "trials": 2,
         "params": {"duration": 120, "processors": 2}}


class TestSpecParsing:
    def test_minimal(self):
        spec = ExperimentSpec.from_dict({"scenario": "x"})
        assert (spec.trials, spec.seed_base, spec.params) == (1, 0, {})
        assert spec.output_dir is None and not spec.retain_transcripts

    def test_full(self):
        spec = ExperimentSpec.from_dict({
            "scenario": "x", "trials": 5, "seed_base": 7,
            "params": {"duration": 50}, "label": "mine",
            "output": {"directory": "out", "retain_transcripts": True},
        })
        assert spec.trials == 5 and spec.seed_base == 7
        assert spec.output_dir == "out" and spec.retain_transcripts
        assert spec.label == "mine"

    def test_unknown_keys_name_the_path(self):
        with pytest.raises(ConfigError, match=r"unknown keys \['trails'\]"):
            ExperimentSpec.from_dict({"scenario": "x", "trails": 3})
        with pytest.raises(ConfigError, match=r"output: unknown keys"):
            ExperimentSpec.from_dict(
                {"scenario": "x", "output": {"dir": "out"}})

    def test_retained_transcripts_need_a_directory(self):
        with pytest.raises(ConfigError, match="need an output directory"):
            ExperimentSpec.from_dict({"scenario": "x",
                                      "output": {"retain_transcripts": True}})

    def test_missing_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            ExperimentSpec.from_dict({"trials": 3})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            ExperimentSpec.from_dict(["scenario"])
        with pytest.raises(ConfigError, match="params"):
            ExperimentSpec.from_dict({"scenario": "x", "params": [1]})

    def test_scalar_validation(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(scenario="x", trials=0)
        with pytest.raises(ConfigError):
            ExperimentSpec(scenario="x", seed_base=-1)

    def test_from_yaml(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "scenario: honest_work_liveness\n"
            "trials: 3\n"
            "seed_base: 11\n"
            "params:\n  duration: 99\n"
            "output:\n  directory: results\n  retain_transcripts: true\n")
        spec = ExperimentSpec.from_yaml(path)
        assert spec.scenario == "honest_work_liveness"
        assert spec.trials == 3 and spec.seed_base == 11
        assert spec.params == {"duration": 99}
        assert spec.output_dir == "results" and spec.retain_transcripts

    def test_yaml_parse_errors_name_the_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("scenario: x\nbogus: 1\n")
        with pytest.raises(ConfigError, match="bad.yaml"):
            ExperimentSpec.from_yaml(path)


class TestParamResolution:
    def scenario(self):
        return get_scenario("honest_work_liveness")

    def test_defaults_fill_in(self):
        params = self.scenario().resolve_params({})
        assert params == self.scenario().defaults

    def test_unknown_parameter_lists_known_ones(self):
        with pytest.raises(ConfigError, match="known:"):
            self.scenario().resolve_params({"durration": 5})

    @pytest.mark.parametrize("name, key, value", [
        ("honest_work_liveness", "duration", 2.5),
        ("honest_work_liveness", "processors", True),
        ("honest_work_liveness", "duration", "2.0"),
        ("stake_density_certificates", "eps", True),
    ])
    def test_no_value_is_truncated_or_read_as_a_number(self, name, key, value):
        with pytest.raises(ConfigError, match=f"params.{key}"):
            get_scenario(name).resolve_params({key: value})

    def test_integral_values_are_integers(self):
        params = self.scenario().resolve_params({"duration": 250.0})
        assert params["duration"] == 250 and type(params["duration"]) is int

    def test_cli_strings_coerce_to_the_default_types(self):
        params = self.scenario().resolve_params(
            {"duration": "250", "rate": "1/8"})
        assert params["duration"] == 250
        assert isinstance(params["duration"], int)
        assert params["rate"] == "1/8"  # rates stay textual until use

    def test_bad_coercions_name_the_field(self):
        with pytest.raises(ConfigError, match="params.duration"):
            self.scenario().resolve_params({"duration": "soon"})


class TestRunExperiment:
    def test_report_shape(self):
        report = run_experiment(ExperimentSpec.from_dict(SMALL))
        assert report["scenario"] == "honest_work_liveness"
        assert report["trials"] == 2
        assert [r["trial"] for r in report["results"]] == [0, 1]
        assert [r["seed"] for r in report["results"]] == [0, 1]
        assert "generated_at" in report
        assert report["aggregate"]

    def test_reports_are_reproducible(self):
        a = run_experiment(ExperimentSpec.from_dict(SMALL))
        b = run_experiment(ExperimentSpec.from_dict(SMALL))
        assert a["generated_at"] != b["generated_at"] or True  # stamp varies
        assert canonical_report_bytes(a) == canonical_report_bytes(b)

    def test_seed_base_shifts_trials(self):
        shifted = dict(SMALL, seed_base=1)
        a = run_experiment(ExperimentSpec.from_dict(SMALL))
        b = run_experiment(ExperimentSpec.from_dict(shifted))
        assert a["results"][1]["transcript_sha256"] == \
            b["results"][0]["transcript_sha256"]

    def test_digest_is_hex_sha256(self):
        report = run_experiment(ExperimentSpec.from_dict(SMALL))
        digest = report["results"][0]["transcript_sha256"]
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="available"):
            run_experiment(ExperimentSpec(scenario="nope"))

    def test_output_directory_gets_report_and_csv(self, tmp_path):
        spec = ExperimentSpec.from_dict(
            dict(SMALL, output={"directory": str(tmp_path / "out")}))
        report = run_experiment(spec)
        out = tmp_path / "out"
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk["results"] == report["results"]
        assert not (out / "transcripts").exists()
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "trial"
        assert len(rows) == 1 + spec.trials

    def test_retained_transcripts_land_on_disk(self, tmp_path):
        spec = ExperimentSpec.from_dict(dict(
            SMALL, trials=1,
            output={"directory": str(tmp_path), "retain_transcripts": True}))
        run_experiment(spec)
        saved = list((tmp_path / "transcripts").iterdir())
        assert len(saved) == 1


class TestReportSerialization:
    def test_canonical_bytes_strip_the_stamp(self):
        report = {"label": "x", "generated_at": "now", "results": []}
        other = dict(report, generated_at="later")
        assert canonical_report_bytes(report) == canonical_report_bytes(other)
        assert b"generated_at" not in canonical_report_bytes(report)

    def test_canonical_bytes_are_key_ordered(self):
        a = canonical_report_bytes({"b": 1, "a": 2})
        b = canonical_report_bytes({"a": 2, "b": 1})
        assert a == b

    def test_csv_cells(self, tmp_path):
        report = {
            "results": [
                {"trial": 0, "ok": True, "note": None, "score": 1.5,
                 "vector": [1, 2]},
                {"trial": 1, "ok": False, "note": "x", "score": 2.0,
                 "vector": [3]},
            ],
        }
        write_report(report, tmp_path)
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "ok", "note", "score"]  # no list column
        assert rows[1] == ["0", "true", "", "1.5"]
        assert rows[2] == ["1", "false", "x", "2.0"]

    def test_no_results_no_csv(self, tmp_path):
        write_report({"results": []}, tmp_path)
        assert (tmp_path / "report.json").exists()
        assert not (tmp_path / "results.csv").exists()


# ---------------------------------------------------------------------------
# trials in several processes
# ---------------------------------------------------------------------------


class ScriptedTrials(Scenario):
    """A test scenario: ``actions[seed](seed)`` runs before a trial's row,
    which records the seed and the process that ran it."""

    name = "scripted_trials"

    def __init__(self, actions=None):
        self.actions = actions or {}
        self.calls = []  # seeds run in this process

    def run_trial(self, params, seed, transcript_dir=None):
        self.calls.append(seed)
        if seed in self.actions:
            self.actions[seed](seed)
        return {"double": 2 * seed, "pid": os.getpid()}


@pytest.fixture
def scripted(monkeypatch):
    def register(actions=None):
        scenario = ScriptedTrials(actions)
        monkeypatch.setitem(SCENARIOS, scenario.name, scenario)
        return scenario
    return register


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail(seed):
    raise ValueError(f"trial seed {seed} failed")


def sleep(seed):
    time.sleep(30)


def interrupt(seed):
    raise KeyboardInterrupt


def fault(seed):
    raise ExecutionFault(f"p{seed}", 7, "message is not permitted")


def run_scripted(trials, jobs):
    return run_experiment(ExperimentSpec(scenario="scripted_trials",
                                         trials=trials), jobs=jobs)


class TestRunTrials:
    def test_rows_return_in_trial_order_dealt_round_robin(self, scripted):
        scenario = scripted()
        report = run_scripted(7, 3)
        rows = report["results"]
        assert [(r["trial"], r["seed"], r["double"]) for r in rows] == \
            [(i, i, 2 * i) for i in range(7)]
        pids = [r["pid"] for r in rows]
        assert pids[0::3] == [os.getpid()] * 3
        assert len({pids[1], pids[2], os.getpid()}) == 3
        assert pids[1::3] == [pids[1]] * 2 and pids[2::3] == [pids[2]] * 2
        assert scenario.calls == [0, 3, 6]  # the caller ran its share
        assert_no_children()

    def test_one_job_is_the_serial_loop(self, scripted):
        scenario = scripted()
        rows = run_scripted(3, 1)["results"]
        assert {r["pid"] for r in rows} == {os.getpid()}
        assert scenario.calls == [0, 1, 2]

    def test_default_is_one_job_per_usable_cpu_and_trial(self, scripted,
                                                         monkeypatch):
        scenario = scripted()
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 1)
        run_scripted(3, None)
        assert scenario.calls == [0, 1, 2]
        scenario.calls.clear()
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 8)
        rows = run_scripted(2, None)["results"]
        assert scenario.calls == [0]  # two trials: one child, not seven
        assert rows[1]["pid"] != os.getpid()
        assert_no_children()

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity call on this platform")
    def test_usable_cpus_is_the_affinity_mask(self):
        assert experiment.usable_cpus() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_is_a_config_error(self, scripted, jobs):
        scripted()
        with pytest.raises(ConfigError, match="jobs"):
            run_scripted(2, jobs)
        with pytest.raises(ConfigError, match="jobs"):
            run_trials(ScriptedTrials(), {}, [], jobs=jobs)

    @pytest.mark.parametrize("failing,first", [
        ((2, 3, 5), 2),   # lowest failure in the caller's share
        ((1, 4), 1),      # lowest failure in a child's share
        ((3, 5), 3),      # only children fail
    ])
    def test_the_lowest_failing_trial_raises(self, scripted, failing, first):
        scripted({seed: fail for seed in failing})
        for jobs in (1, 2, 3):
            with pytest.raises(ValueError,
                               match=f"^trial seed {first} failed$"):
                run_scripted(6, jobs)
            assert_no_children()

    def test_a_child_that_dies_without_a_result_is_named(self, scripted):
        scripted({3: lambda seed: os._exit(3)})
        with pytest.raises(RuntimeError,
                           match=r"seeds \[1, 3\] exited with status 3 "
                                 r"without a result"):
            run_scripted(4, 2)
        assert_no_children()

    def test_a_caller_failure_stops_children_with_later_trials(self,
                                                               scripted):
        scripted({0: fail, 1: sleep, 2: sleep})
        start = time.monotonic()
        with pytest.raises(ValueError, match="trial seed 0"):
            run_scripted(3, 3)
        assert time.monotonic() - start < 20
        assert_no_children()

    def test_an_interrupt_in_the_callers_share_leaves_no_child(self,
                                                               scripted):
        scripted({0: interrupt, 1: sleep})
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_scripted(2, 2)
        assert time.monotonic() - start < 20
        assert_no_children()

    def test_an_execution_fault_crosses_processes_as_itself(self, scripted):
        scripted({1: fault})
        raised = []
        for jobs in (1, 2):
            with pytest.raises(ExecutionFault) as info:
                run_scripted(3, jobs)
            raised.append(info.value)
        serial, forked = raised
        assert type(forked) is ExecutionFault
        assert (forked.processor, forked.slot, forked.clause, str(forked)) \
            == (serial.processor, serial.slot, serial.clause, str(serial))
        assert_no_children()

    def test_an_exception_that_cannot_be_pickled_arrives_as_text(self,
                                                                 scripted):
        class Local(Exception):
            pass

        def raise_local(seed):
            raise Local(f"local {seed}")

        scripted({1: raise_local})
        with pytest.raises(RuntimeError, match="^Local: local 1$"):
            run_scripted(2, 2)
        assert_no_children()


def test_execution_fault_pickles():
    fault = ExecutionFault("p0", 3, "bad")
    back = pickle.loads(pickle.dumps(fault))
    assert type(back) is ExecutionFault
    assert (back.processor, back.slot, back.clause) == ("p0", 3, "bad")
    assert str(back) == str(fault) == "processor 'p0' at slot 3: bad"


# small parameters, three trials each, for every built-in scenario
SMALL_RUNS = {
    "honest_work_liveness": {"duration": 120, "processors": 2},
    "work_double_spend": {"duration": 250, "q": "1/3", "confirm_k": 2},
    "simulation_release": {"duration": 300, "maj_keys": 2, "min_keys": 2},
    "isolated_observers": {"duration": 300, "q": "1/3", "confirm_k": 2},
    "stake_density_certificates": {"duration": 300},
    "union_bound_recalibration": {},
}


def test_small_runs_cover_every_scenario():
    assert set(SMALL_RUNS) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_three_jobs_give_the_bytes_of_one(name, tmp_path):
    outputs = []
    for jobs in (1, 3):
        out = tmp_path / f"jobs{jobs}"
        report = run_experiment(ExperimentSpec(
            scenario=name, trials=3, params=SMALL_RUNS[name],
            output_dir=str(out), retain_transcripts=True), jobs=jobs)
        transcripts = out / "transcripts"
        outputs.append((
            canonical_report_bytes(report),
            (out / "results.csv").read_bytes(),
            {p.name: p.read_bytes() for p in transcripts.iterdir()}))
    assert outputs[0] == outputs[1]
    if name != "union_bound_recalibration":  # it saves no transcript
        assert len(outputs[0][2]) >= 3
    assert_no_children()


def test_a_wide_roster_gives_the_same_report_at_one_and_two_jobs():
    """Thirty honest miners, idle on most slots: the report equals the
    one pinned from runs that stepped every miner at every slot."""
    for jobs in (1, 2):
        report = run_experiment(ExperimentSpec(
            scenario="honest_work_liveness", trials=2,
            params={"processors": 30, "duration": 300}), jobs=jobs)
        assert hashlib.sha256(canonical_report_bytes(report)).hexdigest() == \
            "e4c3648dcc2acacdd64ea30c9671d3e3f776b4d512bff27858bcbc4eee099b67"
    assert_no_children()
