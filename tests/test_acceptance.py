"""Acceptance gates for the shipped framework.

Every test here is a gate, not a probe: pinned seeds, pinned parameters,
pinned tolerances.  The engine is deterministic per seed, so each sampled
rate below is a constant of the seed range — the gates are exactly
reproducible.

The eight gates:

1.  transcript invariants hold across 200 mixed honest runs (both
    permitter families, rosters up to 20, horizons up to 2000 slots);
2.  the structured certificate searchers agree with exhaustive
    subset search on 200 random ledgers;
3.  under a hidden-total permitter, an attacker whose balance merely
    *equals* the honest total forges certificates: with the depth
    parameter calibrated so honest runs false-confirm in at most 5% of
    trials, the simulation attack produces two incompatible certified
    blocks in at least 90% of 200 trials, and the Wilson lower bound
    on that frequency clears ten times the calibration budget;
4.  every successful double-spend survives re-observation: isolated
    zero-balance observers fed the two conflicting ledger slices
    confirm incompatible tips in 100% of attacked trials;
5.  the density rule derived from an error budget (bounded adversary,
    domination factor 1.5) keeps certificate violations within the
    budget and liveness within the emitted parameter over 200 trials,
    including against withholding, private-fork-style and simulation
    attackers;
6.  the per-event budget split is exact arithmetic, and for
    logarithmic budget-to-liveness growth the recalibrated parameter
    is sublinear in the window beyond the computed threshold;
7.  private-fork double-spend success is monotone in the horizon at a
    fixed minority share;
8.  every shipped scenario reproduces byte-identically from its seed.
"""

import random
from fractions import Fraction
from pathlib import Path

from permitsim.adversary import SimulationAttackerStrategy
from permitsim.analysis import (EllTable, certifiable_blocks, check_security,
                                measure_liveness, recalibrate_union_bound,
                                sublinear_overhead_threshold,
                                verify_transcript_invariants, wilson_interval)
from permitsim.blocktree import BlockIndex
from permitsim.engine import ExecutionConfig, ProcessorSpec, run_execution
from permitsim.experiment import (ExperimentSpec, Scenario,
                                  canonical_report_bytes, run_experiment,
                                  run_trials)
from permitsim.messages import PublicKey, genesis_block, make_block
from permitsim.network import (PARTIALLY_SYNCHRONOUS, SynchronySchedule,
                               UniformDelayRule)
from permitsim.permitter import StakePermitter, WorkPermitter
from permitsim.protocols import (DensityCertificateRule, HonestStakeStrategy,
                                 HonestWorkStrategy, KDeepRule,
                                 ObserverStrategy)
from permitsim.resource_pool import (SIZED, UNSIZED, ConstantBalancePool,
                                     StakePool)
from permitsim.scenarios import SCENARIOS

from conftest import exhaustive_certifiable_blocks, leaves


class _Gate(Scenario):
    """A gate's per-seed check as a scenario, so that ``run_trials`` runs
    its seeds on every usable CPU and hands the rows back in seed order."""

    def __init__(self, trial):
        self.trial = trial  # (params, seed) -> a row of plain values

    def run_trial(self, params, seed, transcript_dir=None):
        return self.trial(params, seed)


# ---------------------------------------------------------------------------
# 1. framework invariants across mixed honest runs
# ---------------------------------------------------------------------------


def _honest_work_config(rng: random.Random, seed: int,
                        n_procs: int, duration: int) -> ExecutionConfig:
    keys = {PublicKey(f"w{i}", 0): Fraction(1) for i in range(n_procs)}
    mode = rng.choice([SIZED, UNSIZED])
    bounds = (Fraction(n_procs), Fraction(2 * n_procs)) if mode == UNSIZED else None
    pool = ConstantBalancePool(keys, mode=mode, bounds=bounds)
    specs = [ProcessorSpec(id=f"w{i}", keys=(PublicKey(f"w{i}", 0),),
                           strategy=HonestWorkStrategy)
             for i in range(n_procs)]
    if rng.random() < 0.2:
        specs.append(ProcessorSpec(id="watch", keys=(),
                                   strategy=ObserverStrategy))
    schedule, timing = _mixed_schedule(rng, duration,
                                       [s.id for s in specs])
    return ExecutionConfig(
        delta=2, epsilon=0.1, schedule=schedule, timing=timing, pool=pool,
        permitter=WorkPermitter(Fraction(1, rng.choice([5, 10, 20]))),
        confirmation=KDeepRule(rng.choice([2, 3, 4, 5])),
        processors=specs, seed=seed, label=f"mixed-work-{seed}")


def _honest_stake_config(rng: random.Random, seed: int,
                         n_procs: int, duration: int) -> ExecutionConfig:
    stakes = {PublicKey(f"s{i}", 0): rng.choice([1, 1, 2, 3])
              for i in range(n_procs)}
    lookahead = rng.choice([4, 6, 8])
    specs = [ProcessorSpec(id=f"s{i}", keys=(PublicKey(f"s{i}", 0),),
                           strategy=HonestStakeStrategy)
             for i in range(n_procs)]
    if rng.random() < 0.2:
        specs.append(ProcessorSpec(id="watch", keys=(),
                                   strategy=ObserverStrategy))
    schedule, timing = _mixed_schedule(rng, duration,
                                       [s.id for s in specs])
    return ExecutionConfig(
        delta=2, epsilon=0.1, schedule=schedule, timing=timing,
        pool=StakePool(stakes),
        permitter=StakePermitter(Fraction(1, rng.choice([3, 4, 6])),
                                 lookahead=lookahead),
        confirmation=KDeepRule(rng.choice([2, 3, 4, 5])),
        processors=specs, seed=seed, label=f"mixed-stake-{seed}")


def _mixed_schedule(rng: random.Random, duration: int, roster: list[str]):
    """Schedule plus timing: mostly synchronous, sometimes a partition
    parked inside an asynchronous stretch."""
    roll = rng.random()
    if roll < 0.15 and len(roster) >= 2 and duration >= 120:
        lo = duration // 4
        hi = lo + rng.randint(10, 40)
        schedule = SynchronySchedule(duration=duration,
                                     setting=PARTIALLY_SYNCHRONOUS,
                                     async_intervals=((lo, hi),))
        cut = max(1, len(roster) // 2)
        timing = {"policy": "partition", "interval": [lo, hi],
                  "groups": [roster[:cut], roster[cut:]],
                  "base": {"policy": "uniform_delay",
                           "delay": rng.choice([1, 2])}}
        return schedule, timing
    schedule = SynchronySchedule.fully_synchronous(duration)
    if roll < 0.5:
        return schedule, {"policy": "per_edge_random",
                          "max_delay": rng.choice([1, 2])}
    return schedule, {"policy": "uniform_delay",
                      "delay": rng.choice([1, 2])}


class TestMixedHonestInvariants:
    def test_two_hundred_mixed_runs_violate_nothing(self):
        rng = random.Random(0xACCE55)
        checked = 0
        for i in range(200):
            if i == 0:       # the roster ceiling, once, at the horizon cap
                cfg = _honest_work_config(rng, seed=1000, n_procs=20,
                                          duration=2000)
            elif i == 1:
                cfg = _honest_stake_config(rng, seed=1001, n_procs=12,
                                           duration=1500)
            else:
                n_procs = rng.randint(2, 8)
                duration = rng.randint(120, 600)
                build = (_honest_work_config if i % 2 == 0
                         else _honest_stake_config)
                cfg = build(rng, seed=1000 + i, n_procs=n_procs,
                            duration=duration)
            transcript = run_execution(cfg)
            problems = verify_transcript_invariants(transcript)
            assert problems == [], (cfg.label, problems)
            checked += 1
        assert checked == 200


# ---------------------------------------------------------------------------
# 2. structured certificate search == exhaustive subset search
# ---------------------------------------------------------------------------


def _random_ledger(rng: random.Random, size: int):
    genesis = genesis_block(timed=True)
    index = BlockIndex(genesis)
    blocks = [genesis]
    owners = ("p", "q", "r")
    for i in range(size):
        # bias toward the previous block so real chains appear
        parent = blocks[-1] if rng.random() < 0.5 else rng.choice(blocks)
        block = make_block(PublicKey(rng.choice(owners), 0),
                           parent=parent.id,
                           timestamp=rng.randrange(0, 41),
                           payload=f"{i}")
        index.add(block)
        blocks.append(block)
    return {b.id for b in blocks[1:]}, index


class TestCertificateSearcherEquivalence:
    def test_structured_matches_exhaustive_on_random_ledgers(self):
        rng = random.Random(2026)
        for i in range(200):
            size = 15 if i % 25 == 0 else rng.randint(1, 15)
            ids, index = _random_ledger(rng, size)
            rules = [
                KDeepRule(rng.choice([0, 1, 2, 3])),
                DensityCertificateRule(spacing=10,
                                       interval_len=rng.choice([3, 4, 6]),
                                       threshold=rng.choice([1, 2, 3]),
                                       duration=40),
            ]
            for rule in rules:
                exhaustive = exhaustive_certifiable_blocks(ids, rule, index)
                structured = certifiable_blocks(ids, rule, index)
                assert structured == exhaustive, (i, rule.name)


# ---------------------------------------------------------------------------
# 3. hidden-total setting: equal balance suffices to forge certificates
# ---------------------------------------------------------------------------

# Attack instance: the adversary's key groups carry balance 4 — exactly
# the honest total and exactly the announced lower bound on the hidden
# total, so the permitter's responses cannot tell the two worlds apart.
SIM_PARAMS = {
    "maj_keys": 2,          # adversary key groups, balance 2 each -> 4
    "min_keys": 4,          # honest keys, balance 1 each -> 4
    "reference_scale": 4,   # announced lower total bound
    "duration": 1500,
    "rate": "1/10",
    "confirm_k": 3,         # calibrated below
    "margin": 1,
    "delta": 2,
    "max_delay": 2,
}

# Honest-run false-confirmation budget the depth parameter is calibrated
# against; the calibration sweep over seeds 0..79 gives 6/80 at k=2 and
# 2/80 at k=3, so k=3 is the smallest depth inside the budget.
FALSE_CONFIRM_BUDGET = 0.05
CALIBRATION_SEEDS = 80


def _honest_twin(params: dict, k: int, seed: int) -> ExecutionConfig:
    """The attacked instance with every key held by an honest processor."""
    scenario = SCENARIOS["simulation_release"]
    keys_a, keys_b = scenario._maj_keys(params)
    mins = tuple(PublicKey(f"mn{i}", 0) for i in range(params["min_keys"]))
    balances = {key: Fraction(2) for key in keys_a + keys_b}
    balances.update({key: Fraction(1) for key in mins})
    pool = ConstantBalancePool(balances, mode=UNSIZED,
                               bounds=scenario._bounds(params))
    specs = [ProcessorSpec(id="alpha0", keys=keys_a,
                           strategy=HonestWorkStrategy),
             ProcessorSpec(id="alpha1", keys=keys_b,
                           strategy=HonestWorkStrategy)]
    specs += [ProcessorSpec(id=f"beta{i}", keys=(mins[i],),
                            strategy=HonestWorkStrategy)
              for i in range(len(mins))]
    return ExecutionConfig(
        delta=params["delta"], epsilon=0.1,
        schedule=SynchronySchedule.fully_synchronous(params["duration"]),
        timing={"policy": "per_edge_random",
                "max_delay": params["max_delay"]},
        pool=pool,
        permitter=WorkPermitter(Fraction(params["rate"]),
                                reference_scale=params["reference_scale"]),
        confirmation=KDeepRule(k), processors=specs, seed=seed,
        label=f"honest-twin-{k}-{seed}")


def _false_confirm_rate(params: dict, k: int) -> float:
    def trial(params, seed):
        transcript = run_execution(_honest_twin(params, k, seed))
        return {"secure": check_security(transcript).ok}

    rows = run_trials(_Gate(trial), params, range(CALIBRATION_SEEDS))
    return sum(not r["secure"] for r in rows) / CALIBRATION_SEEDS


class TestHiddenTotalSimulationAttack:
    def test_depth_calibration_is_tight(self):
        scenario = SCENARIOS["simulation_release"]
        params = scenario.resolve_params(SIM_PARAMS)
        k = SIM_PARAMS["confirm_k"]
        assert _false_confirm_rate(params, k) <= FALSE_CONFIRM_BUDGET
        # one step shallower breaks the budget: k really is calibrated
        assert _false_confirm_rate(params, k - 1) > FALSE_CONFIRM_BUDGET

    def test_equal_balance_attacker_forges_certificates(self):
        scenario = SCENARIOS["simulation_release"]
        params = scenario.resolve_params(SIM_PARAMS)
        k = params["confirm_k"]
        rule = KDeepRule(k)
        owners = {key.owner
                  for group in scenario._maj_keys(params) for key in group}

        def trial(params, seed):
            inner = run_execution(scenario._inner_config(params, seed))
            config, attacker = scenario._attacked_config(params, seed)
            attacked = run_execution(config)

            released_at = attacker.released_at
            # the private run must draw grant-for-grant what the honest
            # inner world drew: exactness, not approximation
            coupled = released_at is None or (
                scenario._grant_trace(inner, owners, released_at)
                == scenario._grant_trace(attacked, owners, released_at))

            broadcast_ids = {mid for _s, _p, mid in attacked.broadcasts}
            certified = certifiable_blocks(broadcast_ids, rule,
                                           attacked.index)
            return {"seed": seed, "coupled": coupled,
                    # two incompatible certified blocks broadcast
                    "forged": len(leaves(certified, attacked.index)) >= 2,
                    # some processor's confirmed chain flipped
                    "rolled_back": not check_security(attacked).ok}

        trials = 200
        rows = run_trials(_Gate(trial), params, range(trials))
        assert [r["seed"] for r in rows if not r["coupled"]] == []
        forged = sum(r["forged"] for r in rows)
        rolled_back = sum(r["rolled_back"] for r in rows)
        forge_rate = forged / trials
        wilson_low, _ = wilson_interval(forged, trials)
        assert forge_rate >= 0.90, forge_rate
        assert wilson_low >= 10 * FALSE_CONFIRM_BUDGET, (forged, wilson_low)
        # the forged certificates translate into confirmed-chain flips
        assert rolled_back / trials >= 0.85, rolled_back


# ---------------------------------------------------------------------------
# 4. the violation survives isolated re-observation, every time
# ---------------------------------------------------------------------------


class TestObserverImplication:
    def test_every_attacked_trial_convinces_the_observers(self):
        scenario = SCENARIOS["isolated_observers"]
        params = scenario.resolve_params({})
        results = run_trials(scenario, params, range(40))
        attacked = [r for r in results if r["attacked"]]
        assert len(attacked) >= 10   # enough successful base attacks
        for r in attacked:
            assert r["replay_ok"], r
            assert r["tips_match"], r
            assert r["implication_ok"], r
        aggregate = scenario.aggregate(results, params)
        assert aggregate["implication_rate"] == 1.0
        assert aggregate["all_replays_ok"] is True


# ---------------------------------------------------------------------------
# 5. density certificates stay inside the error budget under attack
# ---------------------------------------------------------------------------

DENSITY_EPS = 0.2       # the scenario's whole-run error budget
DENSITY_PLAN = {        # derived rule, frozen: budget quarter 0.05,
    "eps_prime": 0.05,  # window 317 slots, threshold 158.5 blocks,
    "interval_len": 317,       # grid spacing 329, emitted liveness 646
    "threshold": 158.5,
    "spacing": 329,
    "ell_prime": 646,
}


def _density_sim_config(scenario, params, recal, seed):
    """The withholding staker replaced by a simulation attacker that
    dumps its private world mid-run."""
    config = scenario._config(params, seed, recal)
    wit = next(s for s in config.processors if s.id == "wit")
    inner = [ProcessorSpec(id="sim0", keys=wit.keys,
                           strategy=HonestStakeStrategy)]
    attacker = SimulationAttackerStrategy(
        inner_processors=inner,
        inner_timing=UniformDelayRule(params["delay"]),
        confirm_k=2, release=params["duration"] // 2)
    config.processors = [s for s in config.processors if s.id != "wit"]
    config.processors.append(ProcessorSpec(
        id="wit", keys=wit.keys, strategy=lambda: attacker, adversary=True))
    return config, attacker


class TestDensityBudgetUnderAttack:
    def test_derived_plan_is_the_frozen_one(self):
        scenario = SCENARIOS["stake_density_certificates"]
        recal = scenario.plan(scenario.resolve_params({}))
        assert recal.eps_prime == DENSITY_PLAN["eps_prime"]
        assert recal.interval_len == DENSITY_PLAN["interval_len"]
        assert recal.threshold == DENSITY_PLAN["threshold"]
        assert recal.spacing == DENSITY_PLAN["spacing"]
        assert recal.ell_prime == DENSITY_PLAN["ell_prime"]

    def test_withholding_staker_stays_inside_the_budget(self):
        scenario = SCENARIOS["stake_density_certificates"]
        params = scenario.resolve_params({})
        results = run_trials(scenario, params, range(200))
        violation_rate = sum(not r["secure"] for r in results) / len(results)
        live_rate = sum(bool(r["live_within_ell_prime"])
                        for r in results) / len(results)
        assert violation_rate <= DENSITY_EPS, violation_rate
        assert live_rate >= 1 - DENSITY_EPS, live_rate
        aggregate = scenario.aggregate(results, params)
        assert aggregate["within_budget"] is True

    def test_deep_private_fork_of_leader_slots_changes_nothing(self):
        # hoarding leaderships three times longer before each dump is the
        # private-fork program in the timed lane; the density windows
        # still reject every batch
        scenario = SCENARIOS["stake_density_certificates"]
        params = scenario.resolve_params({"withhold_period": 120})
        rows = run_trials(scenario, params, range(60))
        secure = sum(r["secure"] for r in rows)
        live = sum(bool(r["live_within_ell_prime"]) for r in rows)
        assert secure / 60 >= 1 - DENSITY_EPS
        assert live / 60 >= 1 - DENSITY_EPS

    def test_simulation_attacker_is_harmless_under_known_totals(self):
        # with the pool size known, the privately simulated world earns
        # only the attacker's own leader slots; its released history is
        # too sparse for any density window
        scenario = SCENARIOS["stake_density_certificates"]
        params = scenario.resolve_params({})
        recal = scenario.plan(params)

        def trial(params, seed):
            config, attacker = _density_sim_config(scenario, params,
                                                   recal, seed)
            transcript = run_execution(config)
            return {"secure": check_security(transcript).ok,
                    "live": measure_liveness(transcript).satisfies(
                        recal.ell_prime),
                    "released": attacker.released_at is not None}

        rows = run_trials(_Gate(trial), params, range(60))
        secure = sum(r["secure"] for r in rows)
        live = sum(r["live"] for r in rows)
        released = sum(r["released"] for r in rows)
        assert released == 60    # the dump does happen, and does nothing
        assert secure / 60 >= 1 - DENSITY_EPS
        assert live / 60 >= 1 - DENSITY_EPS


# ---------------------------------------------------------------------------
# 6. budget splitting: exact arithmetic, sublinear overhead
# ---------------------------------------------------------------------------


class TestBudgetSplitArithmetic:
    def test_per_event_split_is_exact_on_a_grid(self):
        table = EllTable(form="log", a=8.0)
        for eps0 in (0.5, 0.2, 0.1, 0.02, 0.004):
            for n in (1, 10, 1000, 10**6):
                plan = recalibrate_union_bound(eps0, n, table)
                assert plan.eps1 == eps0 / (2 * n)
                assert plan.d1_size == n + plan.ell1 + 1

    def test_log_growth_overhead_is_sublinear_past_the_threshold(self):
        table = EllTable(form="log", a=8.0)
        threshold = sublinear_overhead_threshold(table, 0.1, 0.1)
        assert threshold == 780
        # boundary: the threshold itself meets the fraction, the window
        # one slot shorter does not
        at = recalibrate_union_bound(0.1, threshold, table).ell1
        below = recalibrate_union_bound(0.1, threshold - 1, table).ell1
        assert at <= 0.1 * threshold
        assert below > 0.1 * (threshold - 1)
        for n in (1000, 10**4, 10**5, 10**6):
            plan = recalibrate_union_bound(0.1, n, table)
            assert plan.ell1 < 0.1 * n, (n, plan.ell1)


# ---------------------------------------------------------------------------
# 7. double-spend success grows with the horizon
# ---------------------------------------------------------------------------


class TestDoubleSpendMonotonicity:
    def test_success_is_nondecreasing_in_the_horizon(self):
        scenario = SCENARIOS["work_double_spend"]
        trials = 60
        points = []
        for duration in (500, 1000, 2000, 4000):
            params = scenario.resolve_params(
                {"duration": duration, "q": "1/4", "confirm_k": 3})
            hits = sum(row["violation"]
                       for row in run_trials(scenario, params, range(trials)))
            points.append((duration, hits / trials,
                           *wilson_interval(hits, trials)))
        for (d1, r1, _lo1, hi1), (d2, r2, lo2, _hi2) in zip(points,
                                                            points[1:]):
            # nondecreasing point estimates; a dip is tolerable only
            # inside overlapping confidence intervals
            assert r2 >= r1 or lo2 <= hi1, (points,)
        assert points[-1][1] > points[0][1], points
        assert points[-1][1] >= 0.9, points


# ---------------------------------------------------------------------------
# 8. byte-for-byte reproducibility of every shipped scenario
# ---------------------------------------------------------------------------

RERUN_SPECS = {
    "honest_work_liveness": {"trials": 2,
                             "params": {"duration": 120, "processors": 2}},
    "work_double_spend": {"trials": 2,
                          "params": {"duration": 250, "q": "1/3",
                                     "confirm_k": 2}},
    "simulation_release": {"trials": 2,
                           "params": {"duration": 400, "maj_keys": 2,
                                      "min_keys": 2}},
    "isolated_observers": {"trials": 2,
                           "params": {"duration": 600, "q": "1/3",
                                      "confirm_k": 2}},
    "stake_density_certificates": {"trials": 1, "params": {}},
    "union_bound_recalibration": {"trials": 1, "params": {}},
}


class TestScenarioDeterminism:
    def test_every_scenario_reproduces_bytewise(self):
        assert set(RERUN_SPECS) == set(SCENARIOS)
        for name, entry in RERUN_SPECS.items():
            spec = ExperimentSpec(scenario=name, trials=entry["trials"],
                                  seed_base=0, params=entry["params"])
            first = canonical_report_bytes(run_experiment(spec))
            second = canonical_report_bytes(run_experiment(spec))
            assert first == second, name

    def test_retained_transcripts_reproduce_bytewise(self, tmp_path):
        for name in ("honest_work_liveness", "simulation_release"):
            entry = RERUN_SPECS[name]
            dirs = []
            for run in ("a", "b"):
                out = tmp_path / name / run
                spec = ExperimentSpec(scenario=name, trials=entry["trials"],
                                      seed_base=0, params=entry["params"],
                                      output_dir=str(out),
                                      retain_transcripts=True)
                run_experiment(spec)
                dirs.append(out / "transcripts")
            files_a = sorted(p.name for p in dirs[0].iterdir())
            files_b = sorted(p.name for p in dirs[1].iterdir())
            assert files_a == files_b and files_a, name
            for fname in files_a:
                assert ((dirs[0] / fname).read_bytes()
                        == (dirs[1] / fname).read_bytes()), (name, fname)
