"""Built-in scenarios: honest baselines, attacks, and budget arithmetic.

Each scenario is a repeatable measurement over the execution engine (or,
for the budget-arithmetic one, over the recalibration helpers alone).
Trials are pure functions of (params, seed); everything a trial reports
— including transcript digests — reproduces bit-for-bit from the same
inputs.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .adversary import (PrivateForkStrategy, SimulationAttackerStrategy,
                        StakeWithholdStrategy,
                        build_isolated_observer_instance)
from .analysis import (EllTable, build_certificate_recalibration,
                       check_security, measure_liveness,
                       recalibrate_union_bound, sublinear_overhead_threshold,
                       verify_transcript_invariants, wilson_interval)
from .blocktree import compatible
from .engine import ExecutionConfig, ProcessorSpec, run_execution
from .errors import ConfigError
from .experiment import Scenario
from .messages import PublicKey
from .network import PerEdgeRandomRule, SynchronySchedule
from .permitter import StakePermitter, WorkPermitter
from .protocols import (HonestStakeStrategy, HonestWorkStrategy, KDeepRule,
                        ObserverStrategy, ProductionProfile)
from .resource_pool import SIZED, UNSIZED, ConstantBalancePool, StakePool


def _keys(group: str, count: int) -> tuple[PublicKey, ...]:
    return tuple(PublicKey(group, i) for i in range(count))


def _save(transcript, directory: Path | None) -> str:
    """Serialize the transcript once: write it into ``directory`` when one
    is given, and return the sha256 of its bytes."""
    return transcript.save(os.devnull if directory is None
                           else Path(directory) / f"{transcript.label}.jsonl")


def _pass_rate(flags: list[bool]) -> dict:
    hits = sum(1 for f in flags if f)
    lo, hi = wilson_interval(hits, len(flags))
    return {"rate": hits / len(flags), "count": hits, "trials": len(flags),
            "wilson_low": lo, "wilson_high": hi}


# ---------------------------------------------------------------------------
# 1. honest work baseline
# ---------------------------------------------------------------------------


class HonestWorkLiveness(Scenario):
    """All-honest longest-chain run under the work permitter.

    Establishes the baseline the attacks are measured against: no
    security violations ever, and the empirical liveness parameter the
    run exhibits.
    """

    name = "honest_work_liveness"
    summary = ("all-honest work-lane run; checks transcript invariants, "
               "confirmed-chain consistency and measures the liveness "
               "parameter")
    defaults = {
        "duration": 600,
        "processors": 3,
        "rate": "1/10",        # expected blocks per slot across the roster
        "confirm_k": 6,
        "delta": 2,
        "max_delay": 2,
    }

    def _config(self, params: dict, seed: int) -> ExecutionConfig:
        n = params["processors"]
        if n < 1:
            raise ConfigError("params.processors: need at least one")
        balances = {PublicKey(f"p{i}", 0): 1 for i in range(n)}
        pool = ConstantBalancePool(balances, mode=SIZED)
        specs = [
            ProcessorSpec(id=f"p{i}", keys=(PublicKey(f"p{i}", 0),),
                          strategy=HonestWorkStrategy)
            for i in range(n)
        ]
        return ExecutionConfig(
            delta=params["delta"],
            epsilon=0.1,
            schedule=SynchronySchedule.fully_synchronous(params["duration"]),
            timing={"policy": "per_edge_random",
                    "max_delay": params["max_delay"]},
            pool=pool,
            permitter=WorkPermitter(Fraction(params["rate"])),
            confirmation=KDeepRule(params["confirm_k"]),
            processors=specs,
            seed=seed,
            label=f"{self.name}-{seed}",
        )

    def run_trial(self, params, seed, transcript_dir=None):
        transcript = run_execution(self._config(params, seed))
        digest = _save(transcript, transcript_dir)
        problems = verify_transcript_invariants(transcript)
        security = check_security(transcript)
        liveness = measure_liveness(transcript)
        return {
            "invariants_ok": not problems,
            "invariant_problems": problems,
            "secure": security.ok,
            "violations": len(security.violations),
            "minimal_uniform_ell": liveness.minimal_uniform_ell,
            "blocks": len(transcript.broadcasts),
            "transcript_sha256": digest,
        }

    def aggregate(self, results, params):
        ells = [r["minimal_uniform_ell"] for r in results]
        return {
            "all_invariants_ok": all(r["invariants_ok"] for r in results),
            "all_secure": all(r["secure"] for r in results),
            "max_minimal_ell": max(ells),
            "mean_minimal_ell": sum(ells) / len(ells),
        }


# ---------------------------------------------------------------------------
# 2. double spend by private fork
# ---------------------------------------------------------------------------


class WorkDoubleSpend(Scenario):
    """Minority miner withholds a fork until the honest side commits.

    The adversary repeatedly races the public chain in rounds; a release
    only happens once depth-``confirm_k`` confirmation has locked in a
    block the fork excludes, so every release is a genuine double spend.
    Violation frequency grows with the horizon — more rounds, more
    chances — which is the shape the error-budget arithmetic expects.
    """

    name = "work_double_spend"
    summary = ("minority adversary withholds a private fork and releases "
               "after confirmation; measures violation frequency with a "
               "Wilson interval")
    defaults = {
        "duration": 1500,
        "q": "1/4",            # adversary share of the total balance
        "honest_keys": 3,
        "rate": "1/10",
        "confirm_k": 3,
        "depth_margin": 1,
        "abandon_margin": 2,
        "delta": 2,
        "delay": 1,
    }

    def _config(self, params: dict, seed: int):
        q = Fraction(params["q"])
        if not 0 < q < Fraction(1, 2):
            raise ConfigError("params.q: adversary share must be in (0, 1/2)")
        nh = params["honest_keys"]
        honest_total = Fraction(nh)
        adv_balance = q / (1 - q) * honest_total
        balances = {PublicKey(f"h{i}", 0): Fraction(1) for i in range(nh)}
        balances[PublicKey("adv", 0)] = adv_balance
        pool = ConstantBalancePool(balances, mode=SIZED)

        made: list[PrivateForkStrategy] = []

        def attacker_factory() -> PrivateForkStrategy:
            # fresh per execution (a config may be re-run, e.g. replays),
            # recorded so trials can read round/release counters afterwards
            made.append(PrivateForkStrategy(
                confirm_k=params["confirm_k"],
                depth_margin=params["depth_margin"],
                abandon_margin=params["abandon_margin"] or None,
            ))
            return made[-1]

        specs = [
            ProcessorSpec(id=f"h{i}", keys=(PublicKey(f"h{i}", 0),),
                          strategy=HonestWorkStrategy)
            for i in range(nh)
        ]
        specs.append(ProcessorSpec(
            id="adv", keys=(PublicKey("adv", 0),),
            strategy=attacker_factory, adversary=True))
        config = ExecutionConfig(
            delta=params["delta"],
            epsilon=0.1,
            schedule=SynchronySchedule.fully_synchronous(params["duration"]),
            timing={"policy": "uniform_delay", "delay": params["delay"]},
            pool=pool,
            permitter=WorkPermitter(Fraction(params["rate"])),
            confirmation=KDeepRule(params["confirm_k"]),
            processors=specs,
            seed=seed,
            label=f"{self.name}-{seed}",
        )
        return config, made

    def run_trial(self, params, seed, transcript_dir=None):
        config, made = self._config(params, seed)
        transcript = run_execution(config)
        digest = _save(transcript, transcript_dir)
        attacker = made[-1]
        security = check_security(transcript)
        kinds = sorted({v.kind for v in security.violations})
        return {
            "violation": not security.ok,
            "violation_count": len(security.violations),
            "violation_kinds": kinds,
            "fork_rounds": attacker.rounds,
            "fork_releases": attacker.releases,
            "transcript_sha256": digest,
        }

    def aggregate(self, results, params):
        return {"violation": _pass_rate([r["violation"] for r in results])}


# ---------------------------------------------------------------------------
# 3. private simulation of a plausible world
# ---------------------------------------------------------------------------


class SimulationRelease(Scenario):
    """Hidden-total attack: privately rerun a world where the attacker's
    keys are the whole network, then publish that history.

    Two executions share one seed.  In the first ("inner world") the
    majority key groups are honest and alone; in the second the same
    groups belong to an adversary that simulates the first execution
    privately while a smaller honest roster builds in public.  Because
    the permitter's responses cannot depend on the hidden total balance,
    the simulated run draws exactly the grants the inner world drew —
    the trial checks that coupling grant-by-grant — and the released
    history outruns and flips the public chain.
    """

    name = "simulation_release"
    summary = ("adversary privately simulates an alternate honest world "
               "under a hidden-total permitter and releases its longer "
               "history; checks exact grant coupling and the resulting "
               "violation")
    defaults = {
        "duration": 1500,
        "rate": "1/20",
        "confirm_k": 3,
        "margin": 1,
        "maj_keys": 3,         # inner-world keys, balance 2 each
        "min_keys": 3,         # public honest keys, balance 1 each
        "reference_scale": 3,  # announced lower total bound
        "delta": 2,
        "max_delay": 2,
    }

    @staticmethod
    def _maj_keys(params) -> tuple[tuple[PublicKey, ...], tuple[PublicKey, ...]]:
        """Majority keys as two owner groups (one per inner processor)."""
        total = params["maj_keys"]
        if total < 2:
            raise ConfigError("params.maj_keys: need at least two")
        return _keys("mja", total - 1), _keys("mjb", 1)

    def _inner_specs(self, params) -> list[ProcessorSpec]:
        keys_a, keys_b = self._maj_keys(params)
        # two inner processors so the simulation exercises inner routing
        return [
            ProcessorSpec(id="alpha0", keys=keys_a,
                          strategy=HonestWorkStrategy),
            ProcessorSpec(id="alpha1", keys=keys_b,
                          strategy=HonestWorkStrategy),
        ]

    def _bounds(self, params) -> tuple[Fraction, Fraction]:
        lo = Fraction(params["reference_scale"])
        hi = Fraction(2 * params["maj_keys"] + params["min_keys"])
        return (lo, max(lo, hi))

    def _inner_config(self, params, seed) -> ExecutionConfig:
        keys_a, keys_b = self._maj_keys(params)
        pool = ConstantBalancePool({k: Fraction(2) for k in keys_a + keys_b},
                                   mode=UNSIZED, bounds=self._bounds(params))
        return ExecutionConfig(
            delta=params["delta"],
            epsilon=0.1,
            schedule=SynchronySchedule.fully_synchronous(params["duration"]),
            timing={"policy": "per_edge_random",
                    "max_delay": params["max_delay"]},
            pool=pool,
            permitter=WorkPermitter(
                Fraction(params["rate"]),
                reference_scale=params["reference_scale"]),
            confirmation=KDeepRule(params["confirm_k"]),
            processors=[ProcessorSpec(id=s.id, keys=s.keys, strategy=s.strategy)
                        for s in self._inner_specs(params)],
            seed=seed,
            label=f"{self.name}-inner-{seed}",
        )

    def _attacked_config(self, params, seed):
        keys_a, keys_b = self._maj_keys(params)
        maj = keys_a + keys_b
        mins = tuple(PublicKey(f"mn{i}", 0) for i in range(params["min_keys"]))
        balances = {k: Fraction(2) for k in maj}
        balances.update({k: Fraction(1) for k in mins})
        pool = ConstantBalancePool(balances, mode=UNSIZED,
                                   bounds=self._bounds(params))
        inner_rule = PerEdgeRandomRule(params["max_delay"], seed)
        attacker = SimulationAttackerStrategy(
            inner_processors=self._inner_specs(params),
            inner_timing=inner_rule,
            confirm_k=params["confirm_k"],
            release="adaptive",
            margin=params["margin"],
        )
        specs = [
            ProcessorSpec(id=f"beta{i}", keys=(mins[i],),
                          strategy=HonestWorkStrategy)
            for i in range(len(mins))
        ]
        specs.append(ProcessorSpec(id="omega", keys=maj,
                                   strategy=lambda: attacker, adversary=True))
        config = ExecutionConfig(
            delta=params["delta"],
            epsilon=0.1,
            schedule=SynchronySchedule.fully_synchronous(params["duration"]),
            timing={"policy": "per_edge_random",
                    "max_delay": params["max_delay"]},
            pool=pool,
            permitter=WorkPermitter(
                Fraction(params["rate"]),
                reference_scale=params["reference_scale"]),
            confirmation=KDeepRule(params["confirm_k"]),
            processors=specs,
            seed=seed,
            label=f"{self.name}-attacked-{seed}",
        )
        return config, attacker

    @staticmethod
    def _grant_trace(transcript, owners: set[str], before: int) -> list[tuple]:
        """Grant events for the given key groups, stripped of requester id."""
        out = []
        for g in transcript.grants:
            if g.slot < before and g.key.owner in owners:
                out.append((g.slot, g.key, g.granted, g.m_digest, g.candidate))
        return out

    def run_trial(self, params, seed, transcript_dir=None):
        inner = run_execution(self._inner_config(params, seed))
        config, attacker = self._attacked_config(params, seed)
        attacked = run_execution(config)
        inner_digest = _save(inner, transcript_dir)
        attacked_digest = _save(attacked, transcript_dir)

        released_at = attacker.released_at
        owners = {k.owner for g in self._maj_keys(params) for k in g}
        coupling_ok = ledger_match = None  # nothing to compare without a release
        if released_at is not None:
            coupling_ok = (
                self._grant_trace(inner, owners, released_at)
                == self._grant_trace(attacked, owners, released_at))
            released = [mid for slot, sender, mid in attacked.broadcasts
                        if sender == "omega" and slot == released_at]
            inner_prefix = [mid for slot, _s, mid in inner.broadcasts
                            if slot <= released_at]
            ledger_match = released == inner_prefix
        security = check_security(attacked)
        return {
            "released_at": released_at,
            "coupling_ok": coupling_ok,
            "ledger_match": ledger_match,
            "violation": not security.ok,
            "violation_count": len(security.violations),
            "inner_sha256": inner_digest,
            "attacked_sha256": attacked_digest,
        }

    def aggregate(self, results, params):
        released = [r for r in results if r["released_at"] is not None]
        return {
            "violation": _pass_rate([r["violation"] for r in results]),
            "all_coupling_ok": all(r["coupling_ok"] for r in released),
            "all_ledger_match": all(r["ledger_match"] for r in released),
            "released": len(released),
        }


# ---------------------------------------------------------------------------
# 4. the violation is visible to isolated observers
# ---------------------------------------------------------------------------


class IsolatedObservers(Scenario):
    """Replay an attacked run for two observers fed conflicting slices.

    After a double-spend succeeds, each side of the violation is a plain
    message set.  The trial extends the finished run with two isolated
    observers — one receives exactly what the rolled-back processor had
    held when it confirmed the victim, the other what it held after the
    flip — and re-executes.  The original roster replays verbatim (all
    randomness is keyed by content, not by roster), and the observers
    confirm incompatible tips from their slices alone: the violation
    survives as data, independent of who watches.
    """

    name = "isolated_observers"
    summary = ("extends a successful double-spend run with two isolated "
               "observers fed the two conflicting ledger slices; checks "
               "verbatim replay and that the observers confirm "
               "incompatible tips")
    defaults = dict(WorkDoubleSpend.defaults)

    def run_trial(self, params, seed, transcript_dir=None):
        base_scn = WorkDoubleSpend()
        config, _made = base_scn._config(params, seed)
        base = run_execution(config)
        base_digest = _save(base, transcript_dir)
        security = check_security(base)
        out = {
            "attacked": not security.ok,
            "implication_ok": None,
            "replay_ok": None,
            "tips_match": None,
            "base_sha256": base_digest,
            "extended_sha256": None,
        }
        if security.ok:
            return out

        viol = security.violations[0]
        deliver_at = max(viol.slot_a, viol.slot_b) + 1
        if deliver_at > base.duration - 1:
            # violation at the horizon's edge: nothing left to replay into
            out["attacked"] = False
            return out
        held = base.delivery_map()
        arms = []
        for obs_id, proc, slot in (("watch_a", viol.proc_a, viol.slot_a),
                                   ("watch_b", viol.proc_b, viol.slot_b)):
            slice_ids = sorted(
                mid for (rcv, mid), s in held.items()
                if rcv == proc and s <= slot and mid != base.genesis.id)
            arms.append((obs_id, slice_ids, deliver_at))

        extended_config = build_isolated_observer_instance(config, base, arms)
        extended = run_execution(extended_config)
        extended_digest = _save(extended, transcript_dir)

        roster = set(base.roster_ids)
        replay_ok = (
            extended.broadcasts == base.broadcasts
            and extended.grants == base.grants
            and [d for d in extended.deliveries if d[1] in roster]
            == base.deliveries
            and [c for c in extended.confirmations if c[1] in roster]
            == base.confirmations)

        tip_a, _ = extended.last_confirmed("watch_a")
        tip_b, _ = extended.last_confirmed("watch_b")
        implication = (tip_a is not None and tip_b is not None
                       and not compatible(tip_a, tip_b, extended.index))
        out.update({
            "implication_ok": implication,
            "replay_ok": replay_ok,
            "tips_match": (tip_a == viol.tip_a and tip_b == viol.tip_b),
            "extended_sha256": extended_digest,
        })
        return out

    def aggregate(self, results, params):
        attacked = [r for r in results if r["attacked"]]
        return {
            "attacked_trials": len(attacked),
            "implication_rate": (
                sum(1 for r in attacked if r["implication_ok"]) / len(attacked)
                if attacked else None),
            "all_replays_ok": all(r["replay_ok"] for r in attacked),
        }


# ---------------------------------------------------------------------------
# 5. density certificates under a withholding staker
# ---------------------------------------------------------------------------


class StakeDensityCertificates(Scenario):
    """Timestamp-density confirmation versus a withholding minority staker.

    The rule's window length, threshold and emitted liveness parameter
    are derived from the error budget before the run; the trial then
    checks the derivation holds up: a dominated staker who hoards
    leaderships and dumps them periodically never moves anyone's
    confirmed chain, and confirmations keep pace within the emitted
    liveness parameter.
    """

    name = "stake_density_certificates"
    summary = ("derives a density-certificate rule from an error budget, "
               "then runs honest and withholding stakers against it; "
               "checks security stays inside the budget and liveness "
               "meets the emitted parameter")
    defaults = {
        "duration": 2000,
        "eps": 0.2,
        "theta_bound": 1.5,
        "rate": 1.0,
        "honest_stake": 2,
        "adversary_stake": 1,
        "base_ell": 12,
        "withhold_period": 40,
        "lookahead": 8,
        "delta": 2,
        "delay": 1,
    }

    def plan(self, params):
        profile = ProductionProfile(
            rate=params["rate"], honest_keys=1, adversary_keys=1)
        return build_certificate_recalibration(
            eps=params["eps"], theta_bound=params["theta_bound"],
            profile=profile, duration=params["duration"],
            base_ell=params["base_ell"])

    def _config(self, params, seed, recal) -> ExecutionConfig:
        honest_key = PublicKey("val", 0)
        adv_key = PublicKey("wit", 0)
        pool = StakePool({honest_key: params["honest_stake"],
                          adv_key: params["adversary_stake"]})
        specs = [
            ProcessorSpec(id="val", keys=(honest_key,),
                          strategy=HonestStakeStrategy),
            ProcessorSpec(id="wit", keys=(adv_key,),
                          strategy=lambda: StakeWithholdStrategy(
                              period=params["withhold_period"]),
                          adversary=True),
            ProcessorSpec(id="watch", keys=(), strategy=ObserverStrategy),
        ]
        return ExecutionConfig(
            delta=params["delta"],
            epsilon=params["eps"],
            schedule=SynchronySchedule.fully_synchronous(params["duration"]),
            timing={"policy": "uniform_delay", "delay": params["delay"]},
            pool=pool,
            permitter=StakePermitter(params["rate"],
                                     lookahead=params["lookahead"]),
            confirmation=recal.rule,
            processors=specs,
            seed=seed,
            label=f"{self.name}-{seed}",
        )

    def run_trial(self, params, seed, transcript_dir=None):
        recal = self.plan(params)
        transcript = run_execution(self._config(params, seed, recal))
        digest = _save(transcript, transcript_dir)
        security = check_security(transcript)
        liveness = measure_liveness(transcript)
        _, final_len = transcript.last_confirmed("val")
        return {
            "secure": security.ok,
            "violations": len(security.violations),
            "live_within_ell_prime": liveness.satisfies(recal.ell_prime),
            "minimal_uniform_ell": liveness.minimal_uniform_ell,
            "final_confirmed_len": final_len,
            "transcript_sha256": digest,
        }

    def aggregate(self, results, params):
        recal = self.plan(params)
        secure = _pass_rate([r["secure"] for r in results])
        live = _pass_rate([r["live_within_ell_prime"] for r in results])
        return {
            "secure": secure,
            "live": live,
            "within_budget": (1 - secure["rate"] <= params["eps"]
                              and live["rate"] >= 1 - params["eps"]),
            "plan": {
                "eps_prime": recal.eps_prime,
                "interval_len": recal.interval_len,
                "threshold": recal.threshold,
                "spacing": recal.spacing,
                "ell_prime": recal.ell_prime,
            },
        }


# ---------------------------------------------------------------------------
# 6. stretching one error budget over a longer horizon
# ---------------------------------------------------------------------------


def load_packaged_ell_table() -> EllTable:
    """The calibrated liveness-growth table shipped with the package."""
    ref = resources.files("permitsim").joinpath("data/ell_table.json")
    try:
        data = json.loads(ref.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(
            "no packaged ell table found; run `permitsim calibrate-ell` "
            "to fit one") from None
    return EllTable(form=data["form"], a=data["a"], b=data.get("b", 0.0),
                    c=data.get("c", 1.0))


class UnionBoundRecalibration(Scenario):
    """Budget-splitting arithmetic for windows of a longer run.

    No execution here — the trial exercises the closed-form side: split
    an error budget across the 2n events of an n-slot window, look up the
    liveness parameter the smaller budget costs, and find where (if
    anywhere) that overhead drops below a fraction of the window itself.
    Only logarithmic budget-to-liveness growth has such a threshold.
    """

    name = "union_bound_recalibration"
    summary = ("splits an error budget across a longer horizon via the "
               "per-event union bound and reports the recalibrated "
               "liveness parameter and the sublinear-overhead threshold")
    defaults = {
        "eps0": 0.1,
        "n": 1000,
        "alpha": 0.1,
        "table_form": "packaged",  # or log / power / inverse
        "table_a": 8.0,
        "table_b": 0.0,
        "table_c": 1.0,
    }

    def _table(self, params) -> EllTable:
        if params["table_form"] == "packaged":
            return load_packaged_ell_table()
        return EllTable(form=params["table_form"], a=params["table_a"],
                        b=params["table_b"], c=params["table_c"])

    def run_trial(self, params, seed, transcript_dir=None):
        table = self._table(params)
        plan = recalibrate_union_bound(params["eps0"], params["n"], table)
        threshold = sublinear_overhead_threshold(
            table, params["eps0"], params["alpha"])
        return {
            "table_form": table.form,
            "eps1": plan.eps1,
            "ell1": plan.ell1,
            "d1_size": plan.d1_size,
            "overhead_ratio": plan.ell1 / params["n"],
            "sublinear_threshold_n": threshold,
            "has_sublinear_regime": threshold is not None,
        }

    def aggregate(self, results, params):
        # arithmetic only: every trial must land on the same numbers
        stripped = [{k: v for k, v in r.items() if k not in ("trial", "seed")}
                    for r in results]
        return {"consistent": all(r == stripped[0] for r in stripped)}


SCENARIOS: dict[str, Scenario] = {
    scn.name: scn
    for scn in (
        HonestWorkLiveness(),
        WorkDoubleSpend(),
        SimulationRelease(),
        IsolatedObservers(),
        StakeDensityCertificates(),
        UnionBoundRecalibration(),
    )
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None
