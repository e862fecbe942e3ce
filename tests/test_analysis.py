"""Measurements over transcripts plus the error-budget arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permitsim.analysis import (EllTable, LedgerTooLargeError, ViolationRecord,
                                build_certificate_recalibration,
                                certifiable_blocks, check_security,
                                measure_liveness, recalibrate_union_bound,
                                sublinear_overhead_threshold,
                                verify_transcript_invariants, wilson_interval)
from permitsim.blocktree import BlockIndex, compatible
from permitsim.engine import Transcript, run_execution
from permitsim.errors import ConfigError, SettingMismatchError
from permitsim.messages import PublicKey, genesis_block, make_block
from permitsim.permitter import PermitRequest
from permitsim.protocols import (DensityCertificateRule, KDeepRule,
                                 ProductionProfile, Strategy)
from permitsim.resource_pool import ConstantBalancePool, StakePool

from conftest import build_chain, confirmed_series, work_config

P = PublicKey("p", 0)
Q = PublicKey("q", 0)


def synthetic_transcript(confirmations, duration, roster, adversaries=()):
    g = genesis_block(timed=False)
    return Transcript(label="synthetic", seed=0, header={}, genesis=g,
                      index=BlockIndex(g), store={g.id: g},
                      confirmations=list(confirmations), duration=duration,
                      roster_ids=tuple(roster),
                      adversary_ids=tuple(adversaries))


# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------


def failures(report, ell: int) -> list[tuple[int, int, int]]:
    """(t2, min at t2, prefix max at t2 - ell) for each violated pair."""
    out = []
    for t2 in range(ell + 1, report.duration + 1):
        ceiling = report.prefix_max_len[t2 - ell - 1]
        if report.min_len[t2 - 1] <= ceiling:
            out.append((t2, report.min_len[t2 - 1], ceiling))
    return out


def brute_minimal_ell(min_len, prefix_max):
    duration = len(min_len)
    for ell in range(duration + 1):
        if all(min_len[t2 - 1] > prefix_max[t2 - ell - 1]
               for t2 in range(ell + 1, duration + 1)):
            return ell
    return duration


def per_slot_liveness(transcript, processors):
    """The liveness series and ell from their per-slot definitions: each
    processor's length at a slot is its last change point up to it."""
    duration = transcript.duration
    min_len, prefix_max, running = [], [], 0
    for t in range(1, duration + 1):
        lens = []
        for proc in processors:
            ln = 0
            for slot, p, _tip, length in transcript.confirmations:
                if p == proc and slot <= t:
                    ln = length
            lens.append(ln)
        min_len.append(min(lens))
        running = max(running, *lens)
        prefix_max.append(running)
    ell = 0
    for t2 in range(1, duration + 1):
        # t0: the rightmost t in [1, t2] with prefix_max[t] < min[t2], or 0
        t0 = max((t for t in range(1, t2 + 1)
                  if prefix_max[t - 1] < min_len[t2 - 1]), default=0)
        ell = max(ell, t2 - t0)
    return min_len, prefix_max, ell


class TestLiveness:
    def test_lockstep_growth_has_ell_one(self):
        pts = []
        for slot in range(1, 11):
            for proc in ("p", "q"):
                pts.append((slot, proc, f"b{slot}", slot))
        report = measure_liveness(synthetic_transcript(pts, 10, ("p", "q")))
        assert report.minimal_uniform_ell == 1
        assert report.satisfies(1) and not report.satisfies(0)

    def test_a_stall_stretches_ell(self):
        # q freezes at length 2 between slots 3 and 9
        pts = [(1, "p", "b1", 1), (1, "q", "b1", 1),
               (2, "p", "b2", 2), (2, "q", "b2", 2),
               (9, "p", "b3", 3), (9, "q", "b3", 3)]
        report = measure_liveness(synthetic_transcript(pts, 10, ("p", "q")))
        assert report.minimal_uniform_ell == 7
        assert failures(report, 6) and not failures(report, 7)

    def test_flat_series_never_satisfies(self):
        report = measure_liveness(synthetic_transcript([], 12, ("p",)))
        assert report.minimal_uniform_ell == 12

    def test_adversary_excluded_by_default(self):
        pts = [(s, "p", f"b{s}", s) for s in range(1, 9)]
        pts += [(8, "adv", "junk", 1)]
        t = synthetic_transcript(pts, 8, ("adv", "p"), adversaries=("adv",))
        assert measure_liveness(t).minimal_uniform_ell == 1
        assert measure_liveness(t, ["adv", "p"]).minimal_uniform_ell == 8

    def test_needs_a_processor(self):
        t = synthetic_transcript([], 5, ("adv",), adversaries=("adv",))
        with pytest.raises(ConfigError):
            measure_liveness(t)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=4, max_size=28))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, growth):
        pts = []
        lens = {"p": 0, "q": 0}
        for slot, (dp, dq) in enumerate(growth, start=1):
            for proc, d in (("p", dp), ("q", dq)):
                if d:
                    lens[proc] += d
                    pts.append((slot, proc, f"{proc}{lens[proc]}",
                                lens[proc]))
        report = measure_liveness(
            synthetic_transcript(pts, len(growth), ("p", "q")))
        expect = brute_minimal_ell(report.min_len, report.prefix_max_len)
        assert report.minimal_uniform_ell == expect

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_slot_definition(self, data):
        """Change points in slot order, several per slot, lengths that
        shrink, and watched ids that repeat or never confirm."""
        duration = data.draw(st.integers(0, 24))
        roster = ("p", "q", "r")
        slots = sorted(data.draw(st.lists(st.integers(1, max(duration, 1)),
                                          max_size=30))) if duration else []
        pts = [(slot, data.draw(st.sampled_from(roster)), None,
                data.draw(st.integers(0, 9))) for slot in slots]
        watched = data.draw(st.lists(st.sampled_from(roster + ("ghost",)),
                                     min_size=1, max_size=6))
        t = synthetic_transcript(pts, duration, roster)
        report = measure_liveness(t, watched)
        assert (report.min_len, report.prefix_max_len,
                report.minimal_uniform_ell) == per_slot_liveness(t, watched)

    def test_real_run_is_live(self):
        report = measure_liveness(run_execution(work_config(duration=300)))
        assert 0 < report.minimal_uniform_ell < 300
        assert failures(report, report.minimal_uniform_ell) == []
        assert failures(report, report.minimal_uniform_ell - 1)


# ---------------------------------------------------------------------------
# security
# ---------------------------------------------------------------------------


class TestCheckSecurity:
    @pytest.fixture()
    def fork(self):
        g = genesis_block(timed=False)
        index = BlockIndex(g)
        a1 = make_block(P, g.id, payload="a1")
        a2 = make_block(P, a1.id, payload="a2")
        b1 = make_block(Q, g.id, payload="b1")
        for blk in (a1, a2, b1):
            index.add(blk)
        return g, index, a1, a2, b1

    def transcript(self, fork, confirmations, roster, adversaries=()):
        g, index, *_ = fork
        store = {g.id: g}
        return Transcript(label="s", seed=0, header={}, genesis=g,
                          index=index, store=store,
                          confirmations=confirmations, duration=10,
                          roster_ids=tuple(roster),
                          adversary_ids=tuple(adversaries))

    def test_single_chain_is_fine(self, fork):
        g, index, a1, a2, b1 = fork
        t = self.transcript(fork, [(1, "p", a1.id, 2), (2, "p", a2.id, 3),
                                   (2, "q", a1.id, 2)], ("p", "q"))
        report = check_security(t)
        assert report.ok and report.violations == []

    def test_rollback_is_flagged(self, fork):
        g, index, a1, a2, b1 = fork
        t = self.transcript(fork, [(1, "p", a2.id, 3), (5, "p", b1.id, 2)],
                            ("p",))
        report = check_security(t)
        assert not report.ok and not report.per_processor_ok
        kinds = {v.kind for v in report.violations}
        assert "processor_rollback" in kinds

    def test_cross_processor_disagreement(self, fork):
        g, index, a1, a2, b1 = fork
        t = self.transcript(fork, [(3, "p", a2.id, 3), (3, "q", b1.id, 2)],
                            ("p", "q"))
        report = check_security(t)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert "incompatible_confirmations" in kinds
        assert "same_slot_disagreement" in kinds
        assert report.per_processor_ok  # neither processor moved backwards

    def test_adversary_ignored_unless_asked(self, fork):
        g, index, a1, a2, b1 = fork
        pts = [(1, "p", a2.id, 3), (2, "adv", b1.id, 2)]
        t = self.transcript(fork, pts, ("adv", "p"), adversaries=("adv",))
        assert check_security(t).ok
        assert not check_security(t, ["adv", "p"]).ok

    def test_prefix_confirmations_are_compatible(self, fork):
        g, index, a1, a2, b1 = fork
        t = self.transcript(fork, [(1, "p", a2.id, 3), (4, "q", a1.id, 2),
                                   (6, "q", a2.id, 3)], ("p", "q"))
        assert check_security(t).ok

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_slot_agreement_matches_the_per_slot_definition(self, data):
        """Change points in slot order, several per slot, tips on two
        forks, and watched ids that repeat or never confirm."""
        g = genesis_block(timed=False)
        index = BlockIndex(g)
        blocks = [make_block(P, g.id, payload="a1"),
                  make_block(Q, g.id, payload="b1")]
        blocks += [make_block(P, blocks[0].id, payload="a2"),
                   make_block(Q, blocks[1].id, payload="b2")]
        for blk in blocks:
            index.add(blk)
        duration = data.draw(st.integers(0, 24))
        roster = ("p", "q", "r")
        slots = sorted(data.draw(st.lists(st.integers(1, max(duration, 1)),
                                          max_size=30))) if duration else []
        tips = st.sampled_from([None, g.id] + [b.id for b in blocks])
        pts = [(slot, data.draw(st.sampled_from(roster)), data.draw(tips),
                data.draw(st.integers(0, 3))) for slot in slots]
        watched = data.draw(st.lists(st.sampled_from(roster + ("ghost",)),
                                     min_size=1, max_size=6))
        t = Transcript(label="s", seed=0, header={}, genesis=g, index=index,
                       store={g.id: g}, confirmations=pts, duration=duration,
                       roster_ids=roster)
        report = check_security(t, watched)
        expect = per_slot_disagreement(t, watched)
        assert report.same_slot_ok == (expect is None)
        assert [v for v in report.violations
                if v.kind == "same_slot_disagreement"] == (
                    [] if expect is None else [expect])


def per_slot_disagreement(t, processors):
    """The first same-slot disagreement, slot by slot over every pair of
    confirmed tips, or None."""
    series = {p: confirmed_series(t, p) for p in processors}
    for slot in range(1, t.duration + 1):
        tips = [(p, series[p][slot - 1][0]) for p in processors
                if series[p][slot - 1][0] is not None]
        for i, (pa, ta) in enumerate(tips):
            for pb, tb in tips[i + 1:]:
                if not compatible(ta, tb, t.index):
                    return ViolationRecord("same_slot_disagreement",
                                           slot, pa, ta, slot, pb, tb)
    return None


# ---------------------------------------------------------------------------
# certificates: structured vs exhaustive
# ---------------------------------------------------------------------------


def random_tree(rnd, *, timed, n, max_ts=28):
    g = genesis_block(timed=timed)
    index = BlockIndex(g)
    blocks = [g]
    for i in range(n):
        parent = rnd.choice(blocks)
        ts = rnd.randrange(0, max_ts) if timed else None
        blk = make_block(P if i % 2 else Q, parent.id, timestamp=ts,
                         payload=f"n{i}")
        index.add(blk)
        blocks.append(blk)
    return g, index, blocks


class TestCertifiableBlocks:
    def test_k_deep_structured_equals_exhaustive(self):
        rnd = random.Random(7)
        for trial in range(40):
            g, index, blocks = random_tree(rnd, timed=False,
                                           n=rnd.randrange(0, 9))
            ids = [b.id for b in blocks if rnd.random() < 0.85]
            rule = KDeepRule(rnd.randrange(0, 4))
            assert certifiable_blocks(ids, rule, index, "structured") == \
                certifiable_blocks(ids, rule, index, "exhaustive")

    def test_density_structured_equals_exhaustive(self):
        rnd = random.Random(13)
        rule = DensityCertificateRule(10, 4, 2, 40)
        for trial in range(40):
            g, index, blocks = random_tree(rnd, timed=True,
                                           n=rnd.randrange(0, 10))
            ids = [b.id for b in blocks if rnd.random() < 0.9]
            assert certifiable_blocks(ids, rule, index, "structured") == \
                certifiable_blocks(ids, rule, index, "exhaustive")

    def test_exhaustive_cap(self, index, genesis):
        chain = build_chain(index, P, 16)
        ids = [genesis.id] + [b.id for b in chain]
        with pytest.raises(LedgerTooLargeError):
            certifiable_blocks(ids, KDeepRule(2), index, "exhaustive")
        # the structured searcher has no such limit
        certified = certifiable_blocks(ids, KDeepRule(2), index, "structured")
        assert len(certified) == 15

    def test_unknown_method(self, index, genesis):
        with pytest.raises(ConfigError):
            certifiable_blocks([genesis.id], KDeepRule(1), index, "oracle")

    def test_non_block_ids_are_ignored(self, index, genesis):
        chain = build_chain(index, P, 3)
        ids = [genesis.id, "not-a-block"] + [b.id for b in chain]
        got = certifiable_blocks(ids, KDeepRule(1), index, "structured")
        assert got == {genesis.id, chain[0].id, chain[1].id}


# ---------------------------------------------------------------------------
# transcript invariants
# ---------------------------------------------------------------------------


class _AskedAgainAfterBroadcast(Strategy):
    """Asks for one block over a frozen genesis view at every slot, and
    broadcasts it when the first grant is handed back."""

    def __init__(self):
        self._request = None
        self._sent = False

    def plan_broadcasts(self, ctx):
        if self._sent or not ctx.responses:
            return []
        self._sent = True
        return [self._request.candidate]

    def plan_requests(self, ctx):
        if self._request is None:
            view = ctx.view.chain_view()  # genesis alone, never added to
            block = make_block(ctx.keys[0], view.longest_tip)
            self._request = PermitRequest(key=ctx.keys[0], view=view,
                                          candidate=block)
        return [self._request]


class TestInvariants:
    def fresh(self, **kw):
        return run_execution(work_config(duration=120, **kw))

    def test_honest_run_is_clean(self):
        assert verify_transcript_invariants(self.fresh()) == []

    def test_duplicate_delivery_is_caught(self):
        t = self.fresh()
        t.deliveries.append(t.deliveries[0])
        assert any("twice" in p for p in verify_transcript_invariants(t))

    def test_delivery_before_broadcast_is_caught(self):
        t = self.fresh()
        slot, receiver, mid = t.deliveries[0]
        sent = next(s for s, _sender, m in t.broadcasts if m == mid)
        t.deliveries[0] = (sent, receiver, mid)
        assert any("not after broadcast" in p
                   for p in verify_transcript_invariants(t))

    def test_never_broadcast_delivery_is_caught(self):
        t = self.fresh()
        t.deliveries.append((5, t.roster_ids[0], "f" * 64))
        assert any("never-broadcast" in p
                   for p in verify_transcript_invariants(t))

    def test_a_broadcast_of_an_unknown_message_is_reported(self):
        t = run_execution(work_config(duration=40))
        t.broadcasts.append((10, t.roster_ids[0], "f" * 64))
        problems = verify_transcript_invariants(t)
        assert f"broadcast of unknown message {'f' * 64} at slot 10" in problems
        assert not any("unpermitted" in p or "before its parent" in p
                       for p in problems)

    def test_missing_grant_unmasks_the_broadcast(self):
        t = self.fresh()
        del t.grants[0]
        assert any("unpermitted" in p for p in verify_transcript_invariants(t))

    def test_a_grant_after_the_broadcast_masks_no_earlier_one(self):
        config = work_config(duration=20, processors=1, rate=Fraction(1, 2))
        config.processors[0].strategy = _AskedAgainAfterBroadcast
        t = run_execution(config)
        [(sent, _proc, mid)] = t.broadcasts
        granted = [g.slot for g in t.grants if mid in g.granted]
        assert min(granted) < sent < max(granted)
        assert verify_transcript_invariants(t) == []

    def test_parent_order_is_checked(self):
        t = self.fresh()
        for i, (slot, sender, mid) in enumerate(t.broadcasts):
            msg = t.store[mid]
            if msg.parent != t.genesis.id:
                t.broadcasts[i] = (1, sender, mid)
                break
        assert any("before its parent" in p
                   for p in verify_transcript_invariants(t))

    def test_confirmed_tip_must_exist(self):
        t = self.fresh()
        t.confirmations.append((t.duration, t.roster_ids[0], "e" * 64, 9))
        assert any("never-broadcast" in p
                   for p in verify_transcript_invariants(t))

    def test_shrinking_ledger_is_caught(self):
        t = self.fresh()
        proc = t.confirmations[-1][1]
        t.confirmations.append((t.duration, proc, t.genesis.id, 1))
        assert any("shrank" in p for p in verify_transcript_invariants(t))

    def test_late_delivery_breaks_synchrony(self):
        t = self.fresh()
        slot, receiver, mid = t.deliveries[0]
        t.deliveries[0] = (slot + 30, receiver, mid)
        assert any("synchrony deadline" in p
                   for p in verify_transcript_invariants(t))

    def test_save_load_keeps_the_verdict(self, tmp_path):
        t = self.fresh()
        path = tmp_path / "t.transcript"
        t.save(path)
        assert verify_transcript_invariants(Transcript.load(path)) == []


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


class TestWilson:
    # frozen against an independent evaluation of the score interval
    ORACLE = {
        (8, 10): (0.4901624715, 0.9433178485),
        (18, 20): (0.6989663548, 0.9721335188),
        (0, 5): (0.0, 0.4344824648),
        (5, 5): (0.5655175352, 1.0),
        (1, 2): (0.0945312057, 0.9054687943),
    }

    def test_frozen_values(self):
        for (s, n), (lo, hi) in self.ORACLE.items():
            got_lo, got_hi = wilson_interval(s, n)
            assert got_lo == pytest.approx(lo, abs=1e-9)
            assert got_hi == pytest.approx(hi, abs=1e-9)

    def test_symmetry(self):
        for s, n in ((3, 9), (0, 4), (7, 11)):
            lo, hi = wilson_interval(s, n)
            lo2, hi2 = wilson_interval(n - s, n)
            assert lo == pytest.approx(1 - hi2, abs=1e-12)
            assert hi == pytest.approx(1 - lo2, abs=1e-12)

    def test_interval_contains_the_point_estimate(self):
        for s, n in ((0, 7), (3, 7), (7, 7), (40, 60)):
            lo, hi = wilson_interval(s, n)
            assert lo <= s / n <= hi

    def test_wider_at_lower_confidence(self):
        lo95, hi95 = wilson_interval(6, 10, 0.95)
        lo80, hi80 = wilson_interval(6, 10, 0.80)
        assert lo95 < lo80 and hi80 < hi95

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            wilson_interval(1, 0)
        with pytest.raises(ConfigError):
            wilson_interval(5, 4)
        with pytest.raises(ConfigError):
            wilson_interval(-1, 4)


# ---------------------------------------------------------------------------
# budget recalibration
# ---------------------------------------------------------------------------


class TestEllTable:
    def test_log_form(self):
        table = EllTable("log", a=10.0)
        assert table.ell(math.exp(-1)) == 10
        assert table.ell(math.exp(-3)) == 30

    def test_power_and_inverse_forms(self):
        assert EllTable("power", a=2.0, c=0.5).ell(0.04) == 10
        assert EllTable("inverse", a=3.0, b=1.0).ell(0.5) == 7

    def test_floor_at_one(self):
        assert EllTable("log", a=1.0).ell(0.9) == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            EllTable("quadratic", a=1.0)
        with pytest.raises(ConfigError):
            EllTable("log", a=0.0)
        with pytest.raises(ConfigError):
            EllTable("log", a=1.0).ell(0.0)
        with pytest.raises(ConfigError):
            EllTable("log", a=1.0).ell(1.0)


class TestUnionBoundRecalibration:
    def test_exact_arithmetic(self):
        plan = recalibrate_union_bound(0.1, 1000, EllTable("log", a=8.0))
        assert plan.eps1 == 0.1 / 2000
        assert plan.ell1 == math.ceil(8.0 * math.log(2000 / 0.1))
        assert plan.ell1 == 80
        assert plan.d1_size == 1000 + 80 + 1

    def test_budget_splits_over_both_event_kinds(self):
        table = EllTable("log", a=5.0, b=2.0)
        for n in (1, 10, 500):
            plan = recalibrate_union_bound(0.2, n, table)
            assert plan.eps1 == 0.2 / (2 * n)
            assert plan.d1_size == n + plan.ell1 + 1

    def test_validation(self):
        table = EllTable("log", a=1.0)
        with pytest.raises(ConfigError):
            recalibrate_union_bound(0.0, 10, table)
        with pytest.raises(ConfigError):
            recalibrate_union_bound(0.1, 0, table)


class TestSublinearThreshold:
    def test_log_table_has_a_threshold(self):
        table = EllTable("log", a=8.0)
        got = sublinear_overhead_threshold(table, 0.1, 0.1)
        assert got is not None

        def ok(n):
            return table.ell(0.1 / (2 * n)) <= 0.1 * n

        assert ok(got)
        assert got == 1 or not ok(got - 1)

    def test_inverse_table_never_gets_there(self):
        table = EllTable("inverse", a=1.0)
        assert sublinear_overhead_threshold(table, 0.1, 0.5) is None

    def test_square_root_table_does(self):
        table = EllTable("power", a=1.0, c=0.5)
        got = sublinear_overhead_threshold(table, 0.1, 0.2)
        assert got is not None
        assert table.ell(0.1 / (2 * got)) <= 0.2 * got

    def test_alpha_validation(self):
        with pytest.raises(ConfigError):
            sublinear_overhead_threshold(EllTable("log", a=1.0), 0.1, 0.0)


class TestCertificateRecalibration:
    def test_frozen_plan(self):
        profile = ProductionProfile(rate=1.0)
        plan = build_certificate_recalibration(0.2, 1.5, profile, 2000, 12)
        assert plan.eps_prime == 0.05
        assert plan.interval_len == 317
        assert plan.threshold == pytest.approx(158.5)
        assert plan.spacing == 12 + 317
        assert plan.ell_prime == 12 + 2 * 317
        assert plan.rule.spacing == plan.spacing
        assert plan.rule.duration == 2000

    def test_sized_pool_is_accepted(self):
        pool = StakePool({P: 2, Q: 1})
        plan = build_certificate_recalibration(
            0.2, 1.5, ProductionProfile(rate=0.5), 3000, 10, pool=pool)
        assert plan.eps_prime == 0.05

    def test_unsized_pool_is_rejected(self):
        pool = ConstantBalancePool({"p": 2}, bounds=(2, 6))
        with pytest.raises(SettingMismatchError):
            build_certificate_recalibration(
                0.2, 1.5, ProductionProfile(rate=1.0), 2000, 12, pool=pool)

    def test_validation(self):
        profile = ProductionProfile(rate=1.0)
        with pytest.raises(ConfigError):
            build_certificate_recalibration(1.5, 1.5, profile, 2000, 12)
        with pytest.raises(ConfigError):
            build_certificate_recalibration(0.2, 1.5, profile, 2000, 0)
        with pytest.raises(ConfigError):
            build_certificate_recalibration(0.2, 1.0, profile, 2000, 12)
