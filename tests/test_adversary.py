"""Attacker strategies: private forks, full simulation, observer replays."""

from fractions import Fraction

import pytest

from permitsim.adversary import (PrivateForkStrategy,
                                 SimulationAttackerStrategy,
                                 StakeWithholdStrategy,
                                 build_isolated_observer_instance)
from permitsim.analysis import check_security
from permitsim.engine import (ExecutionConfig, ProcessorSpec, run_execution)
from permitsim.errors import ConfigError, ExecutionFault
from permitsim.messages import PublicKey, make_block
from permitsim.network import (PerEdgeRandomRule, SynchronySchedule,
                               UniformDelayRule)
from permitsim.permitter import StakePermitter, WorkPermitter
from permitsim.protocols import (HonestStakeStrategy, HonestWorkStrategy,
                                 KDeepRule)
from permitsim.resource_pool import (SIZED, UNSIZED, ConstantBalancePool,
                                     StakePool)

from conftest import confirmed_series, stake_config, work_config


def fork_config(*, duration=1200, q=Fraction(1, 3), confirm_k=2, seed=11,
                depth_margin=1, abandon_margin=2, honest=3,
                rate=Fraction(1, 10)):
    """Honest majority plus one private-fork adversary at advantage q."""
    balances = {PublicKey(f"p{i}", 0): Fraction(1) for i in range(honest)}
    adv_key = PublicKey("adv", 0)
    balances[adv_key] = q / (1 - q) * honest
    made = []

    def factory():
        made.append(PrivateForkStrategy(confirm_k, depth_margin,
                                        abandon_margin))
        return made[-1]

    cfg = work_config(duration=duration, processors=honest, rate=rate,
                      confirm_k=confirm_k, seed=seed, balances=balances)
    cfg.processors = [p for p in cfg.processors if p.id != "adv"]
    cfg.processors.append(ProcessorSpec(id="adv", keys=(adv_key,),
                                        strategy=factory, adversary=True))
    return cfg, made


class TestPrivateFork:
    def test_fork_forces_a_confirmed_rollback(self):
        cfg, made = fork_config(seed=11)
        transcript = run_execution(cfg)
        report = check_security(transcript)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert kinds <= {"processor_rollback", "incompatible_confirmations",
                         "same_slot_disagreement"}
        assert "processor_rollback" in kinds or \
            "incompatible_confirmations" in kinds
        assert made[-1].releases >= 1

    def test_violating_processors_are_honest(self):
        cfg, _ = fork_config(seed=11)
        report = check_security(run_execution(cfg))
        for v in report.violations:
            assert v.proc_a != "adv" and v.proc_b != "adv"

    def test_withheld_rounds_are_abandoned_not_leaked(self):
        # a weak attacker mostly abandons; its broadcasts stay rare
        cfg, made = fork_config(q=Fraction(1, 8), duration=600, seed=4)
        transcript = run_execution(cfg)
        attacker = made[-1]
        sent = [mid for _, proc, mid in transcript.broadcasts
                if proc == "adv"]
        granted = [g for g in transcript.grants if g.proc == "adv"]
        assert attacker.rounds > attacker.releases
        assert len(sent) <= len(granted)

    def test_released_blocks_reach_honest_confirmed_chains(self):
        cfg, _ = fork_config(seed=11)
        transcript = run_execution(cfg)
        adv_ids = {mid for _, proc, mid in transcript.broadcasts
                   if proc == "adv"}
        assert adv_ids
        index = transcript.index
        hit = False
        for _, proc, tip, _ in transcript.confirmations:
            if proc != "adv" and tip is not None \
                    and set(index.ancestry(tip)) & adv_ids:
                hit = True
        assert hit, "some honest processor confirmed onto the released fork"

    def test_violation_records_are_well_formed(self):
        cfg, _ = fork_config(seed=11)
        transcript = run_execution(cfg)
        report = check_security(transcript)
        index = transcript.index
        for v in report.violations:
            assert v.tip_a and v.tip_b
            if v.kind == "processor_rollback":
                assert v.proc_a == v.proc_b and v.slot_a <= v.slot_b
            elif v.kind == "incompatible_confirmations":
                assert index.height(v.tip_a) <= index.height(v.tip_b)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            PrivateForkStrategy(-1)
        with pytest.raises(ConfigError):
            PrivateForkStrategy(2, depth_margin=0)
        with pytest.raises(ConfigError):
            PrivateForkStrategy(2, abandon_margin=0)
        PrivateForkStrategy(2, abandon_margin=None)  # never abandons


# ---------------------------------------------------------------------------
# full-simulation attack
# ---------------------------------------------------------------------------


MAJ = (PublicKey("mja", 0), PublicKey("mjb", 0))
MIN = (PublicKey("mn0", 0), PublicKey("mn1", 0))


def inner_specs():
    return [
        ProcessorSpec(id="alpha0", keys=(MAJ[0],),
                      strategy=HonestWorkStrategy),
        ProcessorSpec(id="alpha1", keys=(MAJ[1],),
                      strategy=HonestWorkStrategy),
    ]


def sim_pair(*, duration=700, rate=Fraction(1, 12), confirm_k=2, seed=21,
             max_delay=2, reference_scale=3,
             attacker=SimulationAttackerStrategy):
    """(inner world config, attacked config, attacker handle)."""
    bounds = (Fraction(reference_scale), Fraction(2 * len(MAJ) + len(MIN)))
    permitter = WorkPermitter(rate, reference_scale=reference_scale)

    inner_pool = ConstantBalancePool({k: Fraction(2) for k in MAJ},
                                     mode=UNSIZED, bounds=bounds)
    inner = ExecutionConfig(
        delta=2, epsilon=0.1,
        schedule=SynchronySchedule.fully_synchronous(duration),
        timing={"policy": "per_edge_random", "max_delay": max_delay},
        pool=inner_pool, permitter=permitter,
        confirmation=KDeepRule(confirm_k), processors=inner_specs(),
        seed=seed, label="inner",
    )

    balances = {k: Fraction(2) for k in MAJ}
    balances.update({k: Fraction(1) for k in MIN})
    made = []

    def factory():
        made.append(attacker(
            inner_processors=inner_specs(),
            inner_timing=PerEdgeRandomRule(max_delay, seed),
            confirm_k=confirm_k, release="adaptive", margin=1))
        return made[-1]

    specs = [ProcessorSpec(id=f"beta{i}", keys=(MIN[i],),
                           strategy=HonestWorkStrategy)
             for i in range(len(MIN))]
    specs.append(ProcessorSpec(id="omega", keys=MAJ, strategy=factory,
                               adversary=True))
    attacked = ExecutionConfig(
        delta=2, epsilon=0.1,
        schedule=SynchronySchedule.fully_synchronous(duration),
        timing={"policy": "per_edge_random", "max_delay": max_delay},
        pool=ConstantBalancePool(balances, mode=UNSIZED, bounds=bounds),
        permitter=permitter, confirmation=KDeepRule(confirm_k),
        processors=specs, seed=seed, label="attacked",
    )
    return inner, attacked, made


def grant_trace(transcript, procs, before=None):
    out = []
    for g in transcript.grants:
        if g.proc not in procs:
            continue
        if before is not None and g.slot > before:
            continue
        out.append((g.slot, g.key, g.granted, g.m_digest, g.candidate))
    return out


class TestSimulationAttack:
    def test_grant_coupling_is_exact_before_release(self):
        inner_cfg, attacked_cfg, made = sim_pair()
        inner_t = run_execution(inner_cfg)
        attacked_t = run_execution(attacked_cfg)
        attacker = made[-1]
        assert attacker.released_at is not None
        inner_trace = grant_trace(inner_t, {"alpha0", "alpha1"},
                                  before=attacker.released_at)
        omega_trace = grant_trace(attacked_t, {"omega"},
                                  before=attacker.released_at)
        assert omega_trace == inner_trace

    def test_release_publishes_the_inner_history_in_order(self):
        inner_cfg, attacked_cfg, made = sim_pair()
        inner_t = run_execution(inner_cfg)
        attacked_t = run_execution(attacked_cfg)
        released_at = made[-1].released_at
        released = [mid for slot, proc, mid in attacked_t.broadcasts
                    if proc == "omega" and slot == released_at]
        inner_history = [mid for slot, _, mid in inner_t.broadcasts
                         if slot <= released_at]
        assert released == inner_history

    def test_an_idle_private_world_is_not_stepped(self, monkeypatch):
        """Between events the attacker stands and its private world is
        not stepped; the attacked run keeps every byte."""
        slots = []
        receive = SimulationAttackerStrategy.on_receive

        def counted(self, ctx):
            slots.append(ctx.slot)
            receive(self, ctx)

        monkeypatch.setattr(SimulationAttackerStrategy, "on_receive", counted)
        runs, stepped = [], []
        for attacker in (SimulationAttackerStrategy, _SteppedEverySlot):
            slots.clear()
            _, attacked_cfg, made = sim_pair(attacker=attacker)
            runs.append(run_execution(attacked_cfg).to_bytes())
            released_at = made[-1].released_at
            stepped.append(sum(slot <= released_at for slot in slots))
        assert runs[0] == runs[1]
        assert stepped[1] == released_at  # every slot up to the release
        assert stepped[0] < released_at / 2, stepped

    def test_release_flips_the_public_chain(self):
        _, attacked_cfg, made = sim_pair()
        transcript = run_execution(attacked_cfg)
        report = check_security(transcript)
        assert not report.ok
        assert any(v.kind == "processor_rollback" for v in report.violations)

    def test_inner_group_split_is_rejected(self):
        _, attacked_cfg, made = sim_pair()
        bad_inner = [
            ProcessorSpec(id="alpha0", keys=(PublicKey("mja", 0),),
                          strategy=HonestWorkStrategy),
            ProcessorSpec(id="alpha1", keys=(PublicKey("mja", 1),
                                             PublicKey("mjb", 0)),
                          strategy=HonestWorkStrategy),
        ]
        attacked_cfg.processors[-1] = ProcessorSpec(
            id="omega", keys=MAJ,
            strategy=lambda: SimulationAttackerStrategy(
                inner_processors=bad_inner,
                inner_timing=UniformDelayRule(1),
                confirm_k=2),
            adversary=True)
        with pytest.raises(ConfigError, match="split across"):
            run_execution(attacked_cfg)

    def test_constructor_validation(self):
        rule = UniformDelayRule(1)
        with pytest.raises(ConfigError, match="release"):
            SimulationAttackerStrategy(inner_specs(), rule, 2,
                                       release="sometime")
        with pytest.raises(ConfigError):
            SimulationAttackerStrategy(inner_specs(), rule, 2, release=0)
        with pytest.raises(ConfigError, match="empty"):
            SimulationAttackerStrategy([], rule, 2)
        dup = inner_specs() + inner_specs()
        with pytest.raises(ConfigError, match="unique"):
            SimulationAttackerStrategy(dup, rule, 2)

    def test_fixed_release_slot(self):
        _, attacked_cfg, made = sim_pair()
        specs = attacked_cfg.processors

        def factory():
            made.append(SimulationAttackerStrategy(
                inner_processors=inner_specs(),
                inner_timing=PerEdgeRandomRule(2, attacked_cfg.seed),
                confirm_k=2, release=300))
            return made[-1]

        specs[-1] = ProcessorSpec(id="omega", keys=MAJ, strategy=factory,
                                  adversary=True)
        transcript = run_execution(attacked_cfg)
        assert made[-1].released_at == 300
        after = [g for g in transcript.grants
                 if g.proc == "omega" and g.slot > 300]
        assert after == []  # a released attacker goes quiet

    def test_the_private_world_obeys_the_model(self):
        _, attacked_cfg, _ = sim_pair(duration=60)
        forging = [ProcessorSpec(id="alpha0", keys=(MAJ[0],),
                                 strategy=_ForgeAtSlot3),
                   inner_specs()[1]]
        attacked_cfg.processors[-1] = ProcessorSpec(
            id="omega", keys=MAJ,
            strategy=lambda: SimulationAttackerStrategy(
                inner_processors=forging,
                inner_timing=UniformDelayRule(1),
                confirm_k=2, release=10**6),  # never releases
            adversary=True)
        with pytest.raises(ExecutionFault) as fault:
            run_execution(attacked_cfg)
        assert (fault.value.processor, fault.value.slot) == ("alpha0", 3)
        assert "not permitted" in fault.value.clause


class _SteppedEverySlot(SimulationAttackerStrategy):
    """The simulation attacker without standing."""

    standing = False


class _ForgeAtSlot3(HonestWorkStrategy):
    """Honest, except for one ungranted block broadcast at slot 3."""

    def plan_broadcasts(self, ctx):
        out = super().plan_broadcasts(ctx)
        if ctx.slot == 3:
            out.append(make_block(ctx.keys[0], parent=ctx.view.longest_tip,
                                  payload="forged"))
        return out


# ---------------------------------------------------------------------------
# stake-lane withholding
# ---------------------------------------------------------------------------


class TestStakeWithhold:
    def test_releases_happen_on_period_boundaries(self):
        period = 25
        wit_key = PublicKey("wit", 0)
        cfg = stake_config(duration=200,
                           stakes={PublicKey("s0", 0): 2, wit_key: 1})
        cfg.processors[-1] = ProcessorSpec(
            id="wit", keys=(wit_key,),
            strategy=lambda: StakeWithholdStrategy(period),
            adversary=True)
        transcript = run_execution(cfg)
        slots = {s for s, proc, _ in transcript.broadcasts if proc == "wit"}
        assert slots, "a 1/3 staker at rate 1/4 wins slots in 200 tries"
        assert all(s % period == 0 or s == cfg.duration for s in slots)

    def test_withheld_blocks_sit_on_a_private_fork(self):
        period = 40
        wit_key = PublicKey("wit", 0)
        cfg = stake_config(duration=240,
                           stakes={PublicKey("s0", 0): 2, wit_key: 1})
        cfg.processors[-1] = ProcessorSpec(
            id="wit", keys=(wit_key,),
            strategy=lambda: StakeWithholdStrategy(period),
            adversary=True)
        transcript = run_execution(cfg)
        index = transcript.index
        by_batch: dict[int, list[str]] = {}
        for s, proc, mid in transcript.broadcasts:
            if proc == "wit":
                by_batch.setdefault(s, []).append(mid)
        for batch in by_batch.values():
            # each batch is one chain: parents link inside the batch or to
            # a block known before the round started
            heights = sorted(index.height(m) for m in batch)
            assert heights == list(range(heights[0], heights[0] + len(batch)))

    def test_period_validation(self):
        with pytest.raises(ConfigError):
            StakeWithholdStrategy(0)


# ---------------------------------------------------------------------------
# isolated observers
# ---------------------------------------------------------------------------


class TestIsolatedObservers:
    def make_violating_run(self):
        cfg, _ = fork_config(seed=11)
        transcript = run_execution(cfg)
        report = check_security(transcript)
        assert report.violations
        return cfg, transcript, report.violations[0]

    def arms_for(self, transcript, viol):
        dm = transcript.delivery_map()
        deliver_at = max(viol.slot_a, viol.slot_b) + 1
        arms = []
        for tag, proc, slot in (("a", viol.proc_a, viol.slot_a),
                                ("b", viol.proc_b, viol.slot_b)):
            mids = sorted(
                (s, mid) for (rcv, mid), s in dm.items()
                if rcv == proc and s <= slot)
            slice_ids = [mid for _, mid in mids
                         if mid != transcript.genesis.id]
            arms.append((f"watch_{tag}", slice_ids, deliver_at))
        return arms, deliver_at

    def test_replay_is_verbatim_and_observers_split(self):
        cfg, transcript, viol = self.make_violating_run()
        arms, deliver_at = self.arms_for(transcript, viol)
        assert deliver_at <= cfg.duration
        extended_cfg = build_isolated_observer_instance(cfg, transcript, arms)
        extended = run_execution(extended_cfg)

        # the original roster's run replays byte-for-byte
        assert extended.broadcasts == transcript.broadcasts
        assert extended.grants == transcript.grants
        base = set(transcript.roster_ids)
        assert [d for d in extended.deliveries if d[1] in base] == \
            transcript.deliveries

        # each observer locks onto its side of the violation
        tips = {}
        for proc in ("watch_a", "watch_b"):
            series = confirmed_series(extended, proc)
            tips[proc] = series[-1][0]
        assert tips["watch_a"] == viol.tip_a
        assert tips["watch_b"] == viol.tip_b

    def test_arm_validation(self):
        cfg, transcript, viol = self.make_violating_run()
        with pytest.raises(ConfigError, match="already in the roster"):
            build_isolated_observer_instance(
                cfg, transcript, [("adv", [], 5)])
        with pytest.raises(ConfigError, match="outside the run"):
            build_isolated_observer_instance(
                cfg, transcript, [("w", [], cfg.duration + 1)])
        with pytest.raises(ConfigError, match="not in the base ledger"):
            build_isolated_observer_instance(
                cfg, transcript, [("w", ["nope"], 5)])
        late = transcript.broadcasts[-1]
        with pytest.raises(ConfigError, match="too late"):
            build_isolated_observer_instance(
                cfg, transcript, [("w", [late[2]], late[0])])
