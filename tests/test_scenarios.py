"""One small trial through each packaged scenario."""

import hashlib
import os
import tracemalloc

import pytest

from permitsim.engine import Transcript, run_execution
from permitsim.errors import ConfigError
from permitsim.scenarios import SCENARIOS, get_scenario


def run_one(name, seed=0, **overrides):
    scenario = get_scenario(name)
    params = scenario.resolve_params(overrides)
    return scenario, params, scenario.run_trial(params, seed)


class TestRegistry:
    def test_lookup_matches_declared_names(self):
        for key, scenario in SCENARIOS.items():
            assert scenario.name == key
            assert scenario.summary
            assert scenario.defaults

    def test_expected_roster(self):
        assert set(SCENARIOS) == {
            "honest_work_liveness", "work_double_spend",
            "simulation_release", "isolated_observers",
            "stake_density_certificates", "union_bound_recalibration",
        }

    def test_unknown_name_lists_the_options(self):
        with pytest.raises(ConfigError, match="honest_work_liveness"):
            get_scenario("work_liveness")


class TestSavedTranscripts:
    @pytest.mark.parametrize("name,overrides", [
        ("honest_work_liveness", {"duration": 200}),
        ("simulation_release", {"duration": 300}),
    ])
    def test_each_transcript_is_serialized_once(self, name, overrides,
                                                tmp_path, monkeypatch):
        serialized = []
        write = Transcript.write

        def counted(transcript, fh):
            serialized.append(transcript.label)
            return write(transcript, fh)

        monkeypatch.setattr(Transcript, "write", counted)
        scenario = get_scenario(name)
        params = scenario.resolve_params(overrides)
        row = scenario.run_trial(params, 3, transcript_dir=tmp_path)
        files = sorted(tmp_path.glob("*.jsonl"))
        assert sorted(serialized) == [f.stem for f in files]
        saved = {hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
        digests = {v for k, v in row.items() if k.endswith("_sha256")}
        assert digests == saved
        # the digests do not depend on whether the files are written
        serialized.clear()
        unsaved = scenario.run_trial(params, 3)
        assert unsaved == row
        assert sorted(serialized) == [f.stem for f in files]

    def test_a_save_holds_one_window_of_slots_at_a_time(self):
        scenario = get_scenario("stake_density_certificates")

        def save_peak(duration):
            params = scenario.resolve_params({"duration": duration})
            transcript = run_execution(
                scenario._config(params, 1, scenario.plan(params)))
            with open(os.devnull, "wb") as fh:
                tracemalloc.start()
                try:
                    transcript.write(fh)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        # the whole serialized transcript grows fourfold; the save must not
        assert save_peak(8000) < 1.5 * save_peak(2000)


class TestHonestWorkLiveness:
    def test_trial(self):
        _, params, result = run_one("honest_work_liveness",
                                    duration=150, processors=2)
        assert result["invariants_ok"] and result["secure"]
        assert 0 < result["minimal_uniform_ell"] < 150
        assert result["blocks"] > 0

    def test_aggregate(self):
        scenario, params, result = run_one("honest_work_liveness",
                                           duration=150, processors=2)
        agg = scenario.aggregate([result, result], params)
        assert agg["all_invariants_ok"] and agg["all_secure"]

    def test_trials_are_pure_functions_of_the_seed(self):
        _, _, a = run_one("honest_work_liveness", seed=4, duration=150)
        _, _, b = run_one("honest_work_liveness", seed=4, duration=150)
        assert a == b


class TestWorkDoubleSpend:
    def test_attack_lands(self):
        _, _, result = run_one("work_double_spend", seed=1, duration=900,
                               q="1/3", confirm_k=2)
        assert result["violation"]
        assert result["fork_releases"] >= 1
        assert result["violation_kinds"]

    def test_weak_attacker_usually_fails_short_runs(self):
        _, _, result = run_one("work_double_spend", seed=0, duration=250,
                               q="1/10", confirm_k=4)
        assert not result["violation"]
        assert result["fork_rounds"] >= 1

    def test_aggregate_reports_a_wilson_interval(self):
        scenario, params, r0 = run_one("work_double_spend", seed=1,
                                       duration=900, q="1/3", confirm_k=2)
        agg = scenario.aggregate([r0, dict(r0, violation=False)], params)
        assert agg["violation"]["count"] == 1
        assert agg["violation"]["trials"] == 2
        assert 0 <= agg["violation"]["wilson_low"] <= 0.5
        assert 0.5 <= agg["violation"]["wilson_high"] <= 1


class TestSimulationRelease:
    def test_coupling_and_flip(self):
        _, _, result = run_one("simulation_release", seed=2, duration=600,
                               rate="1/12", confirm_k=2, maj_keys=2,
                               min_keys=2)
        assert result["released_at"] is not None
        assert result["coupling_ok"]
        assert result["ledger_match"]
        assert result["violation"]

    def test_aggregate_counts_releases(self):
        scenario, params, result = run_one(
            "simulation_release", seed=2, duration=600, rate="1/12",
            confirm_k=2, maj_keys=2, min_keys=2)
        agg = scenario.aggregate([result], params)
        assert agg["released"] == 1
        assert agg["all_coupling_ok"] and agg["all_ledger_match"]

    def test_a_missed_release_is_not_broken_coupling(self):
        scenario, params, missed = run_one("simulation_release", seed=392,
                                           margin=30)
        assert missed["released_at"] is None
        assert missed["coupling_ok"] is None
        assert missed["ledger_match"] is None
        agg = scenario.aggregate([missed], params)
        assert agg["released"] == 0
        assert agg["all_coupling_ok"] and agg["all_ledger_match"]
        broken = dict(missed, released_at=5, coupling_ok=False,
                      ledger_match=False)
        agg = scenario.aggregate([missed, broken], params)
        assert not agg["all_coupling_ok"] and not agg["all_ledger_match"]


class TestIsolatedObservers:
    def test_observers_disagree_after_an_attack(self):
        _, _, result = run_one("isolated_observers", seed=1, duration=900,
                               q="1/3", confirm_k=2)
        assert result["attacked"]
        assert result["replay_ok"]
        assert result["implication_ok"]
        assert result["tips_match"]

    def test_clean_runs_have_nothing_to_show(self):
        scenario, params, result = run_one("isolated_observers", seed=0,
                                           duration=250, q="1/10",
                                           confirm_k=4)
        assert not result["attacked"]
        assert result["implication_ok"] is None
        agg = scenario.aggregate([result], params)
        assert agg["attacked_trials"] == 0
        assert agg["implication_rate"] is None


class TestStakeDensityCertificates:
    def test_dominated_withholder_cannot_shake_confirmations(self):
        _, params, result = run_one("stake_density_certificates", seed=0,
                                    duration=1200)
        assert result["secure"]
        assert result["live_within_ell_prime"]
        assert result["final_confirmed_len"] >= 2

    def test_aggregate_checks_the_budget(self):
        scenario, params, result = run_one("stake_density_certificates",
                                           seed=0, duration=1200)
        agg = scenario.aggregate([result], params)
        assert agg["within_budget"]
        assert agg["secure"]["rate"] == 1.0


class TestUnionBoundRecalibration:
    def test_log_table_numbers(self):
        _, _, result = run_one("union_bound_recalibration",
                               table_form="log", table_a=8.0,
                               eps0=0.1, n=1000)
        assert result["eps1"] == 0.1 / 2000
        assert result["ell1"] == 80
        assert result["d1_size"] == 1081
        assert result["has_sublinear_regime"]

    def test_inverse_table_has_no_sublinear_regime(self):
        _, _, result = run_one("union_bound_recalibration",
                               table_form="inverse", table_a=1.0,
                               eps0=0.1, n=1000)
        assert result["sublinear_threshold_n"] is None
        assert not result["has_sublinear_regime"]

    def test_packaged_table_loads(self):
        _, _, result = run_one("union_bound_recalibration")
        assert result["ell1"] > 0 and result["has_sublinear_regime"]

    def test_trials_agree(self):
        scenario, params, result = run_one("union_bound_recalibration")
        _, _, again = run_one("union_bound_recalibration", seed=5)
        stripped = [{k: v for k, v in r.items() if k not in ("seed", "trial")}
                    for r in (result, again)]
        assert scenario.aggregate(stripped, params)["consistent"]
