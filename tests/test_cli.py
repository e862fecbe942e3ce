"""Command-line behavior and exit codes."""

import json

import pytest

from permitsim.analysis import EllTable
from permitsim.cli import main
from permitsim.engine import Transcript, run_execution
from permitsim.errors import ExecutionFault
from permitsim.experiment import Scenario
from permitsim import scenarios
from permitsim.scenarios import SCENARIOS

from conftest import StandingStaker, work_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScenariosListing:
    def test_lists_every_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios")
        assert code == 0
        for name in SCENARIOS:
            assert name in out


class TestRun:
    def test_prints_a_summary_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "honest_work_liveness",
            "--set", "duration=120", "--set", "processors=2")
        assert code == 0
        report = json.loads(out)
        assert report["scenario"] == "honest_work_liveness"
        assert report["trials"] == 1
        assert report["aggregate"]["all_secure"]

    def test_writes_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        code, _, err = run_cli(
            capsys, "run", "--scenario", "honest_work_liveness",
            "--trials", "2", "--set", "duration=100",
            "--out", str(out_dir), "--retain-transcripts")
        assert code == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "results.csv").exists()
        assert len(list((out_dir / "transcripts").iterdir())) == 2
        assert "report written" in err

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("scenario: honest_work_liveness\n"
                       "trials: 1\n"
                       "params:\n  duration: 100\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["trials"] == 1

    def test_scenario_and_config_are_exclusive(self, capsys, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("scenario: honest_work_liveness\n")
        code, _, err = run_cli(capsys, "run", "--scenario", "x",
                               "--config", str(cfg))
        assert code == 2 and "exactly one" in err
        code, _, err = run_cli(capsys, "run")
        assert code == 2

    def test_overrides_clash_with_config(self, capsys, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("scenario: honest_work_liveness\n")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg),
                               "--set", "duration=5")
        assert code == 2 and "--set" in err

    def test_unknown_scenario(self, capsys):
        code, _, err = run_cli(capsys, "run", "--scenario", "nope")
        assert code == 2 and "configuration error" in err

    def test_unknown_parameter(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--scenario", "honest_work_liveness",
            "--set", "duratoin=120")
        assert code == 2 and "duratoin" in err

    def test_a_zero_lookahead_is_a_configuration_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--scenario", "stake_density_certificates",
            "--set", "lookahead=0")
        assert code == 2 and "lookahead" in err

    def test_a_standing_staker_is_a_configuration_error(self, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(scenarios, "HonestStakeStrategy", StandingStaker)
        code, out, err = run_cli(
            capsys, "run", "--scenario", "stake_density_certificates",
            "--set", "duration=30", "--jobs", "1")
        assert code == 2 and out == ""
        assert err.startswith("configuration error:")
        assert "permitter that can draw" in err

    def test_malformed_override(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--scenario", "honest_work_liveness",
            "--set", "duration")
        assert code == 2 and "KEY=VALUE" in err

    @pytest.mark.parametrize("text, named", [
        ("trials: many\n", "trials"),
        ("trials: 1.9\n", "trials"),
        ("trials: true\n", "trials"),
        ("seed_base: [1]\n", "seed_base"),
        ("params:\n  duration: 2.5\n", "params.duration"),
        ("params:\n  processors: true\n", "params.processors"),
        ("output:\n  retain_transcripts: maybe\n", "retain_transcripts"),
        ("output:\n  directory: 5\n", "output.directory"),
        ("label: [1, 2]\n", "label"),
        ("trials: : [\n", "not a valid YAML spec"),
        ("trials: \"1\n", "not a valid YAML spec"),
    ])
    def test_malformed_spec_file_is_a_configuration_error(
            self, capsys, tmp_path, text, named):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("scenario: honest_work_liveness\n" + text)
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("configuration error:") and named in err
        assert "Traceback" not in err

    def test_spec_file_that_cannot_be_read(self, capsys, tmp_path):
        for path in (tmp_path / "missing.yaml", tmp_path):
            code, out, err = run_cli(capsys, "run", "--config", str(path))
            assert code == 2 and out == ""
            assert "cannot read the spec file" in err and str(path) in err

    def test_spec_file_that_is_not_text(self, capsys, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_bytes(b"\xff\xfe scenario")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2 and "not a valid YAML spec" in err

    def test_integral_floats_in_a_spec_file_are_integers(self, capsys,
                                                         tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("scenario: honest_work_liveness\ntrials: 2.0\n"
                       "params:\n  duration: 40.0\n  processors: 2\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0 and json.loads(out)["trials"] == 2

    def test_jobs_below_one_is_a_configuration_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--scenario", "honest_work_liveness",
            "--trials", "2", "--jobs", "0")
        assert code == 2 and "jobs" in err

    def test_jobs_do_not_change_the_artifacts(self, capsys, tmp_path):
        outputs = []
        for jobs in ("1", "2"):
            out_dir = tmp_path / jobs
            code, out, _ = run_cli(
                capsys, "run", "--scenario", "honest_work_liveness",
                "--trials", "3", "--set", "duration=100", "--jobs", jobs,
                "--out", str(out_dir), "--retain-transcripts")
            assert code == 0
            outputs.append((out, (out_dir / "results.csv").read_bytes(),
                            {p.name: p.read_bytes() for p in
                             (out_dir / "transcripts").iterdir()}))
        assert outputs[0] == outputs[1]

    def test_a_fault_in_a_worker_exits_1_with_its_message(self, capsys,
                                                         monkeypatch):
        class SecondTrialFaults(Scenario):
            name = "second_trial_faults"

            def run_trial(self, params, seed, transcript_dir=None):
                if seed == 1:
                    raise ExecutionFault("p1", 7, "message is not permitted")
                return {}

        monkeypatch.setitem(SCENARIOS, SecondTrialFaults.name,
                            SecondTrialFaults())
        errors = []
        for jobs in ("1", "2"):
            code, _, err = run_cli(capsys, "run", "--scenario",
                                   "second_trial_faults", "--trials", "2",
                                   "--jobs", jobs)
            assert code == 1
            errors.append(err)
        assert errors[0] == errors[1] == (
            "execution fault: processor 'p1' at slot 7: "
            "message is not permitted\n")


class TestValidate:
    def save_run(self, tmp_path, name="run.transcript"):
        transcript = run_execution(work_config(duration=100))
        path = tmp_path / name
        transcript.save(path)
        return transcript, path

    def test_clean_transcript_passes(self, capsys, tmp_path):
        _, path = self.save_run(tmp_path)
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 0
        assert f"{path}: ok" in out

    def test_tampered_transcript_fails(self, capsys, tmp_path):
        transcript, path = self.save_run(tmp_path)
        transcript.deliveries.append(transcript.deliveries[0])
        transcript.save(path)
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "problem" in out and "twice" in out

    def rewrite(self, path, kind, change):
        """Apply ``change`` to the first record of type ``kind``."""
        lines = path.read_text().splitlines()
        n = next(i for i, line in enumerate(lines)
                 if json.loads(line)["type"] == kind)
        rec = json.loads(lines[n])
        change(rec)
        lines[n] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")

    def test_a_header_duration_off_the_schedule_fails(self, capsys, tmp_path):
        path = tmp_path / "run.transcript"
        run_execution(work_config(duration=30)).save(path)
        self.rewrite(path, "header", lambda rec: rec.update(duration=10))
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "header duration 10 differs from the schedule's 30" in out

    @pytest.mark.parametrize("kind,slot", [
        ("broadcast", 31), ("delivery", 31), ("grant", 0), ("confirm", 0)])
    def test_a_record_outside_the_horizon_fails(self, capsys, tmp_path, kind,
                                                slot):
        path = tmp_path / "run.transcript"
        run_execution(work_config(duration=30)).save(path)
        self.rewrite(path, kind, lambda rec: rec.update(slot=slot))
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert (f"1 {kind} record(s) outside slots 1..30, the first at "
                f"slot {slot}") in out

    def test_security_report_flag(self, capsys, tmp_path):
        _, path = self.save_run(tmp_path)
        code, out, _ = run_cli(capsys, "validate", str(path),
                               "--report-security")
        assert code == 0
        assert "confirmed chains consistent: True" in out
        assert "minimal uniform liveness parameter" in out

    def test_multiple_files(self, capsys, tmp_path):
        _, a = self.save_run(tmp_path, "a.transcript")
        _, b = self.save_run(tmp_path, "b.transcript")
        code, out, _ = run_cli(capsys, "validate", str(a), str(b))
        assert code == 0
        assert out.count(": ok") == 2

    @pytest.mark.parametrize("data,problem", [
        (b'{"type":"header"', "line 1: not valid JSON"),
        (b'{"type":"header"}\n', "line 1: the record has no field"),
        (b'\n\xff\n', "line 2: 'utf-8' codec can't decode"),
    ])
    def test_malformed_record_is_named(self, capsys, tmp_path, data, problem):
        path = tmp_path / "bad.transcript"
        path.write_bytes(data)
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert f"{path}: malformed transcript: {problem}" in out

    # (record type, field path, wrong value, the problem reported)
    WRONG_TYPES = [
        ("header", ("seed",), 5.0, "field 'seed' is 5.0, not an int"),
        ("header", ("roster",), "p0", "field 'roster' is 'p0', not a list of "
         "strings"),
        ("header", ("config", "schedule"), "x",
         "field 'schedule' is 'x', not a schedule object"),
        ("header", ("config", "schedule", "setting"), "bogus",
         "unknown synchrony setting 'bogus'"),
        ("header", ("config", "delta"), "2", "field 'delta' is '2', not an int"),
        ("header", ("config", "timed"), "no",
         "field 'timed' is 'no', not a bool"),
        ("delivery", ("slot",), "5", "field 'slot' is '5', not an int"),
        ("delivery", ("msg_id",), None, "field 'msg_id' is None, not a string"),
        ("delivery", ("type",), "vote", "unknown record type 'vote'"),
        ("broadcast", ("proc",), 7, "field 'proc' is 7, not a string"),
        ("broadcast", ("msg", "timestamp"), "3",
         "a timestamp is an int, not '3'"),
        ("broadcast", ("msg", "parent"), 5,
         "a parent reference is a string, not 5"),
        ("broadcast", ("msg", "payload"), None,
         "a payload is a string, not None"),
        ("broadcast", ("msg", "signer"), ["p0", True],
         "a key is a (str, int) pair, not ('p0', True)"),
        ("broadcast", ("msg", "embedded"), [[["p0", 0], 5]],
         "a body digest is a string, not 5"),
        ("grant", ("m_digest",), "x", "field 'm_digest' is 'x', not an int"),
        ("grant", ("leader_slot",), False,
         "field 'leader_slot' is False, not an int or null"),
        ("grant", ("candidate",), [],
         "field 'candidate' is [], not a string or null"),
        ("grant", ("granted",), ["a", 1],
         "field 'granted' is ['a', 1], not a list of strings"),
        ("grant", ("key",), ["p0", "0"],
         "field 'key' is ['p0', '0'], not a [str, int] key"),
        ("confirm", ("len",), True, "field 'len' is True, not an int"),
        ("confirm", ("tip",), 3, "field 'tip' is 3, not a string or null"),
        ("end", ("broadcasts",), "1", "field 'broadcasts' is '1', not an int"),
    ]

    @pytest.mark.parametrize("kind,field,value,problem", WRONG_TYPES,
                             ids=[f"{kind}-{'.'.join(field)}-{value!r}"
                                  for kind, field, value, _ in WRONG_TYPES])
    def test_a_wrong_typed_field_is_named(self, capsys, tmp_path, kind, field,
                                          value, problem):
        _, path = self.save_run(tmp_path)
        lines = path.read_text().splitlines()
        n = next(i for i, line in enumerate(lines)
                 if json.loads(line)["type"] == kind)
        rec = json.loads(lines[n])
        *outer, last = field
        target = rec
        for name in outer:
            target = target[name]
        target[last] = value
        lines[n] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert f"{path}: malformed transcript: line {n + 1}: {problem}" in out

    def test_cut_transcript_is_malformed(self, capsys, tmp_path):
        _, path = self.save_run(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert (f"{path}: malformed transcript: line {len(lines)}: "
                f"the transcript ends without an end record") in out

    def test_a_malformed_file_does_not_stop_the_others(self, capsys, tmp_path):
        _, good = self.save_run(tmp_path)
        bad = tmp_path / "bad.transcript"
        bad.write_text("")
        code, out, _ = run_cli(capsys, "validate", str(bad), str(good))
        assert code == 1
        assert f"{bad}: malformed transcript" in out
        assert f"{good}: ok" in out

    def test_an_unreadable_path_does_not_stop_the_others(self, capsys,
                                                         tmp_path):
        _, good = self.save_run(tmp_path)
        missing = tmp_path / "missing.transcript"
        code, out, _ = run_cli(capsys, "validate", str(missing), str(good))
        assert code == 1
        assert f"{missing}: cannot read: No such file or directory" in out
        assert f"{good}: ok" in out


class TestCalibrate:
    def test_writes_a_loadable_table(self, capsys, tmp_path):
        out = tmp_path / "table.json"
        code, stdout, _ = run_cli(
            capsys, "calibrate-ell", "--trials", "12", "--duration", "120",
            "--eps-grid", "0.5,0.25,0.1", "--out", str(out))
        assert code == 0
        assert "fitted" in stdout
        data = json.loads(out.read_text())
        table = EllTable(data["form"], data["a"], data["b"])
        assert table.ell(0.1) >= 1
        assert set(data["fitted_from"]["quantiles"]) == {"0.5", "0.25", "0.1"}

    def test_jobs_do_not_change_the_table(self, capsys, tmp_path):
        tables = []
        for jobs in ("1", "2"):
            out = tmp_path / f"table{jobs}.json"
            code, _, _ = run_cli(
                capsys, "calibrate-ell", "--trials", "10", "--duration",
                "150", "--jobs", jobs, "--out", str(out))
            assert code == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_jobs_below_one_is_a_configuration_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "calibrate-ell", "--trials", "10", "--jobs", "0",
            "--out", str(tmp_path / "t.json"))
        assert code == 2 and "jobs" in err

    def test_needs_enough_trials(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "calibrate-ell", "--trials", "3",
            "--out", str(tmp_path / "t.json"))
        assert code == 2 and "at least 10" in err

    def test_eps_grid_validation(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "calibrate-ell", "--trials", "12",
            "--eps-grid", "0.5,2.0", "--out", str(tmp_path / "t.json"))
        assert code == 2
