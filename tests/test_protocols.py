"""Confirmation rules, the density arithmetic behind them, the honest
work strategy's candidates and standing, and the stakers' leader slots."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permitsim.analysis import certifiable_blocks
from permitsim.blocktree import BlockIndex, BlockSetView
from permitsim.engine import ProcessorSpec, run_execution
from permitsim.errors import ConfigError
from permitsim.messages import PublicKey, genesis_block, make_block
from permitsim.network import UniformDelayRule
from permitsim.permitter import LeaderGrant, PermitResponse
from permitsim.adversary import (PrivateForkStrategy,
                                 SimulationAttackerStrategy,
                                 StakeWithholdStrategy)
from permitsim.protocols import (DensityCertificateRule, HonestStakeStrategy,
                                 HonestWorkStrategy, KDeepRule, LeaderSlots,
                                 ObserverStrategy, ProductionProfile,
                                 StepContext, Strategy, density_threshold,
                                 interval_length_r)

from conftest import (block_ids, brute_force_k_deep, build_chain,
                      reference_confirm, stake_config)

P = PublicKey("p", 0)
Q = PublicKey("q", 0)


# ---------------------------------------------------------------------------
# depth-k confirmation
# ---------------------------------------------------------------------------


class TestKDeep:
    def test_short_chain_confirms_genesis_only(self, index, genesis):
        chain = build_chain(index, P, 2)
        ids = [genesis.id] + [b.id for b in chain]
        rule = KDeepRule(4)
        assert rule.confirm(ids, index) == (genesis.id,)

    def test_deep_chain_drops_last_k(self, index, genesis):
        chain = build_chain(index, P, 7)
        ids = [genesis.id] + [b.id for b in chain]
        confirmed = KDeepRule(3).confirm(ids, index)
        assert confirmed == (genesis.id,) + tuple(b.id for b in chain[:4])

    def test_fork_resolved_by_length(self, index, genesis):
        long = build_chain(index, P, 5, tag="l")
        short = build_chain(index, Q, 3, tag="s")
        ids = [genesis.id] + [b.id for b in long + short]
        confirmed = KDeepRule(2).confirm(ids, index)
        assert confirmed[-1] == long[2].id
        assert short[0].id not in confirmed

    def test_matches_brute_force_on_random_trees(self, genesis):
        import random
        rnd = random.Random(404)
        for trial in range(60):
            index = BlockIndex(genesis)
            blocks = [genesis]
            for i in range(rnd.randrange(1, 14)):
                parent = rnd.choice(blocks)
                blk = make_block(P if i % 2 else Q, parent.id,
                                 payload=f"t{trial}n{i}")
                index.add(blk)
                blocks.append(blk)
            ids = [b.id for b in blocks]
            # also check subsets that break chain completeness
            subset = [i for i in ids if rnd.random() < 0.8] or [genesis.id]
            for k in (0, 1, 3):
                rule = KDeepRule(k)
                assert rule.confirm(ids, index) == \
                    brute_force_k_deep(ids, k, index)
                assert rule.confirm(subset, index) == \
                    brute_force_k_deep(subset, k, index)

    def test_negative_depth_rejected(self):
        with pytest.raises(ConfigError):
            KDeepRule(-1)


# ---------------------------------------------------------------------------
# density-certificate confirmation
# ---------------------------------------------------------------------------


def timed_genesis_index():
    genesis = genesis_block(timed=True)
    return genesis, BlockIndex(genesis)


class TestDensityRule:
    def rule(self, spacing=10, interval_len=4, threshold=3, duration=60):
        return DensityCertificateRule(spacing, interval_len, threshold,
                                      duration)

    def test_grid_arithmetic(self):
        rule = self.rule()
        assert rule.window(1) == (10, 14)
        assert rule.window(0) is None          # index 0 is never a window
        assert rule.window(6) is None          # past the duration
        assert rule.window_of_timestamp(12) == 1
        assert rule.window_of_timestamp(15) is None   # in the gap
        assert rule.window_of_timestamp(9) is None

    def test_spacing_must_exceed_window(self):
        with pytest.raises(ConfigError):
            DensityCertificateRule(4, 4, 1, 60)

    def test_certificate_confirms_the_anchored_prefix(self):
        genesis, index = timed_genesis_index()
        # one block before window 1, then three blocks timestamped inside
        # [10, 14] descending from it: a witness for the length-1 prefix
        pre = build_chain(index, P, 1, timestamp=lambda i: 5, tag="pre")
        inside = build_chain(index, P, 3, parent=pre[0].id,
                             timestamp=lambda i: 11 + i, tag="in")
        ids = [genesis.id, pre[0].id] + [b.id for b in inside]
        rule = self.rule(threshold=3)
        assert certifiable_blocks(ids, rule, index) == {genesis.id}
        assert rule.confirm(ids, index) == (genesis.id,)

    def test_too_few_blocks_is_no_witness(self):
        genesis, index = timed_genesis_index()
        pre = build_chain(index, P, 1, timestamp=lambda i: 5)
        build_chain(index, P, 2, parent=pre[0].id,
                    timestamp=lambda i: 11 + i, tag="in")
        ids = block_ids(index)
        assert self.rule(threshold=3).confirm(ids, index) == ()

    def test_chain_blocks_must_predate_the_window(self):
        genesis, index = timed_genesis_index()
        # height-1 anchor timestamped inside window 2: its prefix cannot
        # be certified by window-2 blocks
        late = build_chain(index, P, 1, timestamp=lambda i: 21, tag="late")
        build_chain(index, P, 3, parent=late[0].id,
                    timestamp=lambda i: 21 + i, tag="in")
        ids = block_ids(index)
        rule = self.rule(threshold=3)
        assert certifiable_blocks(ids, rule, index) == set()
        assert rule.confirm(ids, index) == ()

    def test_deeper_window_wins(self):
        genesis, index = timed_genesis_index()
        a = build_chain(index, P, 1, timestamp=lambda i: 5, tag="a")
        build_chain(index, P, 3, parent=a[0].id,
                    timestamp=lambda i: 11 + i, tag="w1")
        b = build_chain(index, P, 1, parent=a[0].id,
                        timestamp=lambda i: 15, tag="b")
        build_chain(index, P, 3, parent=b[0].id,
                    timestamp=lambda i: 21 + i, tag="w2")
        ids = block_ids(index)
        rule = self.rule(threshold=3)
        # window 2 anchors the length-2 prefix (genesis, a0): longer wins
        assert rule.confirm(ids, index) == (genesis.id, a[0].id)

    def test_empty_set_confirms_nothing(self):
        genesis, index = timed_genesis_index()
        assert self.rule().confirm([], index) == ()

    def test_confirm_matches_the_tracker_on_random_held_sets(self):
        """A held block counts only once its chain is held: the rule on a
        set agrees with the tracker fed that set in any order, and with
        the reference witness count."""
        import random
        rnd = random.Random(1)
        rule = self.rule(spacing=10, interval_len=4, threshold=2, duration=40)
        for trial in range(500):
            genesis, index = timed_genesis_index()
            blocks = [genesis]
            for i in range(rnd.randrange(1, 14)):
                parent = rnd.choice(blocks)
                blk = make_block(P if i % 2 else Q, parent.id,
                                 timestamp=rnd.randrange(0, 40),
                                 payload=f"t{trial}n{i}")
                index.add(blk)
                blocks.append(blk)
            held = [b for b in blocks[1:] if rnd.random() < 0.7]
            rnd.shuffle(held)
            view = BlockSetView.fresh(index, genesis)
            tracker = rule.make_tracker(view)
            for blk in held:
                for bid in view.add(blk):
                    tracker.on_block(bid)
            tip, length = tracker.current()
            expected = () if tip is None else index.ancestry(tip)
            assert len(expected) == length
            ids = [genesis.id] + [b.id for b in held]
            assert rule.confirm(ids, index) == expected
            assert reference_confirm(rule, ids, index) == expected


class _Unmemoized(DensityCertificateRule):
    """The density rule computing every admission anew."""

    def admit(self, block_id, index):
        return self._admit(block_id, index)


def density_stake_config(rule, seed=5):
    cfg = stake_config(duration=300, seed=seed, label="stake-density")
    cfg.confirmation = rule
    return cfg


class TestAdmitMemo:
    def counted(self, monkeypatch):
        calls = []
        admit = DensityCertificateRule._admit

        def counting(rule, block_id, index):
            calls.append(block_id)
            return admit(rule, block_id, index)

        monkeypatch.setattr(DensityCertificateRule, "_admit", counting)
        return calls

    def test_admit_runs_once_per_block(self, monkeypatch):
        calls = self.counted(monkeypatch)
        plain = run_execution(density_stake_config(_Unmemoized(40, 20, 3, 300)))
        per_holder = len(calls)
        calls.clear()
        t = run_execution(density_stake_config(DensityCertificateRule(
            40, 20, 3, 300)))
        assert t.to_bytes() == plain.to_bytes()
        assert t.confirmations  # the rule confirms something
        blocks = {mid for _, _, mid in t.broadcasts}
        assert sorted(calls) == sorted(blocks)  # each block once
        assert per_holder == 2 * len(blocks)  # each block in both views

    def test_a_reused_rule_keeps_one_runs_entries(self):
        rule = DensityCertificateRule(40, 20, 3, 300)
        first = run_execution(density_stake_config(rule, seed=5))
        second = run_execution(density_stake_config(rule, seed=6))
        assert rule._memo_index is second.index
        blocks = {mid for _, _, mid in second.broadcasts}
        assert set(rule._memo) == blocks
        assert set(rule._memo) != {mid for _, _, mid in first.broadcasts}
        fresh = run_execution(density_stake_config(
            DensityCertificateRule(40, 20, 3, 300), seed=6))
        assert second.to_bytes() == fresh.to_bytes()


# ---------------------------------------------------------------------------
# production profile and window arithmetic
# ---------------------------------------------------------------------------


class TestDensityArithmetic:
    def test_worked_example(self):
        """Rate 1/2 over a 400-slot window at domination bound 3/2:
        expectations 120 vs 80, midpoint threshold 100."""
        profile = ProductionProfile(rate=0.5)
        assert profile.expected_honest(1.5, 400) == pytest.approx(120.0)
        assert profile.expected_adversary(1.5, 400) == pytest.approx(80.0)
        theta = density_threshold(1.5, profile, 400)
        assert theta == pytest.approx(100.0)

    def test_threshold_is_midpoint_of_rate(self):
        profile = ProductionProfile(rate=1.0)
        assert density_threshold(2.0, profile, 300) == \
            pytest.approx(150.0)

    def test_shares_at_the_domination_boundary(self):
        profile = ProductionProfile(rate=1.0)
        h, a = profile.worst_case_shares(Fraction(3, 2))
        assert h == Fraction(3, 5) and a == Fraction(2, 5)
        assert h + a == 1

    def test_domination_bound_must_exceed_one(self):
        with pytest.raises(ConfigError):
            density_threshold(1.0, ProductionProfile(rate=1.0), 10)

    def test_interval_length_matches_linear_scan_oracle(self):
        # frozen from an independent linear scan of the tail bound
        profile = ProductionProfile(rate=1.0, honest_keys=1, adversary_keys=1)
        assert interval_length_r(1.5, 0.05, profile, 2000) == 317
        two_keys = ProductionProfile(rate=0.5, honest_keys=2,
                                     adversary_keys=1)
        assert interval_length_r(1.4, 0.025, two_keys, 5000) == 2927

    def test_interval_length_is_minimal(self):
        profile = ProductionProfile(rate=1.0)
        r = interval_length_r(1.5, 0.05, profile, 2000)
        gap = profile.per_slot_gap(1.5)

        def tail(n):
            return 2 * math.exp(-2 * n * gap * gap)

        def budget(n):
            return 0.05 / (2 * math.ceil(2000 / n))

        assert tail(r) <= budget(r)
        assert tail(r - 1) > budget(r - 1)

    def test_halving_the_budget_adds_a_bounded_term(self):
        """eps' -> eps'/2 costs at most ~ln(2) / (2 gap^2) extra slots."""
        profile = ProductionProfile(rate=1.0)
        gap = profile.per_slot_gap(1.5)
        r1 = interval_length_r(1.5, 0.05, profile, 2000)
        r2 = interval_length_r(1.5, 0.025, profile, 2000)
        assert r1 < r2
        bump = math.log(2) / (2 * gap * gap)
        assert r2 - r1 <= math.ceil(bump) + 2
        assert r2 == 344  # frozen from the linear-scan oracle

    def test_interval_shrinks_as_domination_grows(self):
        profile = ProductionProfile(rate=1.0)
        r_weak = interval_length_r(1.2, 0.05, profile, 2000)
        r_strong = interval_length_r(3.0, 0.05, profile, 2000)
        assert r_strong < r_weak

    @given(st.floats(min_value=1.05, max_value=4.0),
           st.floats(min_value=0.005, max_value=0.4))
    @settings(max_examples=40, deadline=None)
    def test_tail_bound_always_holds_at_the_returned_length(self, th, eps):
        profile = ProductionProfile(rate=1.0)
        r = interval_length_r(th, eps, profile, 3000)
        gap = profile.per_slot_gap(th)
        tail = 2 * math.exp(-2 * r * gap * gap)
        assert tail <= eps / (2 * math.ceil(3000 / r))


# ---------------------------------------------------------------------------
# honest work candidates
# ---------------------------------------------------------------------------


def work_step(view, slot):
    return StepContext(slot=slot, processor_id="p", keys=(P,), view=view,
                       responses=(), delivered=(), duration=100, delta=2,
                       epsilon=0.1, timed=False, lookahead=0)


class TestHonestWorkCandidates:
    def test_the_candidate_is_reused_while_the_tip_holds(self, view, genesis):
        strategy = HonestWorkStrategy()
        first = strategy.plan_requests(work_step(view, 1))[0].candidate
        again = strategy.plan_requests(work_step(view, 2))[0].candidate
        assert again is first
        assert first.parent == genesis.id

    def test_a_moved_tip_gets_a_new_candidate(self, view, genesis):
        strategy = HonestWorkStrategy()
        first = strategy.plan_requests(work_step(view, 1))[0].candidate
        block = make_block(Q, genesis.id)
        view.add(block)
        moved = strategy.plan_requests(work_step(view, 2))[0].candidate
        assert moved.parent == block.id
        assert moved.id == make_block(P, block.id).id != first.id


def attacker_step(view, slot, responses=()):
    return StepContext(slot=slot, processor_id="omega", keys=(P, Q),
                       view=view, responses=responses, delivered=(),
                       duration=100, delta=2, epsilon=0.1, timed=False,
                       lookahead=0)


class TestStanding:
    def test_only_the_honest_miner_stands(self, view):
        """Of the strategies that act, the honest miner always stands and
        the simulation attacker only while nothing is due in its private
        world: no delivery queued, no response pending, and a release that
        waits on no slot.  A strategy that overrides no hook, the base and
        the observer, does nothing, so it stands too."""
        for cls in (Strategy, ObserverStrategy, HonestWorkStrategy):
            assert cls.standing, cls.__name__
        for cls in (HonestStakeStrategy, PrivateForkStrategy,
                    StakeWithholdStrategy):
            assert not cls.standing, cls.__name__
        inner = [ProcessorSpec(id=f"in{i}", keys=(key,),
                               strategy=HonestWorkStrategy)
                 for i, key in enumerate((P, Q))]

        def attacker(release):
            return SimulationAttackerStrategy(inner, UniformDelayRule(1), 2,
                                              release=release)

        adaptive, fixed = attacker("adaptive"), attacker(50)
        assert not adaptive.standing  # its world has not started
        for strategy in (adaptive, fixed):
            strategy.on_receive(attacker_step(view, 1))
        assert adaptive.standing
        assert not fixed.standing  # it must look at every slot
        # a grant to the private world: its block is broadcast at slot 2
        # and is due at the other simulated miner at slot 3
        for strategy in (adaptive, fixed):
            request = strategy.plan_requests(attacker_step(view, 1))[0]
            granted = PermitResponse(key=request.key,
                                     granted=(request.candidate,))
            strategy.on_receive(attacker_step(view, 2, (granted,)))
        assert not adaptive.standing
        for strategy in (adaptive, fixed):
            strategy.on_receive(attacker_step(view, 3))
        assert adaptive.standing
        assert not fixed.standing
        fixed.on_receive(attacker_step(view, 50))
        assert [m.id for m in fixed.plan_broadcasts(
            attacker_step(view, 50))] == [granted.granted[0].id]
        assert fixed.standing  # a released attacker only receives

    def test_a_subclass_that_overrides_a_hook_does_not_stand(self):
        class Forging(HonestWorkStrategy):
            def plan_broadcasts(self, ctx):
                return []

        class Renamed(HonestWorkStrategy):  # no hook overridden
            name = "renamed"

        class Declared(HonestWorkStrategy):
            standing = True

            def on_receive(self, ctx):
                super().on_receive(ctx)

        class Below(Declared):
            def plan_requests(self, ctx):
                return []

        class Acting(ObserverStrategy):
            def plan_requests(self, ctx):
                return []

        assert not Forging.standing
        assert Renamed.standing and Declared.standing
        assert not Below.standing
        assert not Acting.standing


# ---------------------------------------------------------------------------
# stakers' leader slots
# ---------------------------------------------------------------------------


def stake_step(view, slot, lookahead, duration, keys=(P, Q), responses=()):
    return StepContext(slot=slot, processor_id="p", keys=keys, view=view,
                       responses=responses, delivered=(), duration=duration,
                       delta=2, epsilon=0.1, timed=True, lookahead=lookahead)


class TestLeaderSlots:
    @pytest.mark.parametrize("lookahead", [0, 1, 3, 8, 25])
    def test_asks_what_the_set_based_loop_asked(self, view, lookahead):
        duration = 20
        slots = LeaderSlots()
        queried = set()
        for slot in range(1, duration + 1):
            # the loop each staker used to carry: every target in the
            # window, minus the (key, target) pairs asked before
            expected = []
            hi = min(slot + lookahead, duration)
            for key in (P, Q):
                for target in range(slot + 1, hi + 1):
                    if (key, target) in queried:
                        continue
                    queried.add((key, target))
                    expected.append((key, target))
            got = slots.requests(stake_step(view, slot, lookahead, duration),
                                 view)
            assert [(r.key, r.target_slot) for r in got] == expected
            assert all(r.view is view and r.candidate is None for r in got)

    def test_the_smallest_winning_key_produces_once(self, view):
        slots = LeaderSlots()
        slots.note([PermitResponse(key=k, leader=LeaderGrant(k, 4))
                    for k in (Q, P)] + [PermitResponse(key=Q)])
        assert slots.take(3) is None
        assert slots.take(4) == P
        assert slots.take(4) is None
