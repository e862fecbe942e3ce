"""Permitters: grant laws, request validity, and the budget rules."""

import copy
import gc
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permitsim.blocktree import BlockIndex, BlockSetView
from permitsim.engine import run_execution
from permitsim.errors import ConfigError, SettingMismatchError
from permitsim.messages import (PAYLOAD, Message, PublicKey, genesis_block,
                                make_block)
from permitsim import rng
from permitsim.permitter import (LeaderGrant, PermitRequest, PermitResponse,
                                 StakePermitter, WorkPermitter, _cutoff,
                                 enforce_request_budget)
from permitsim.resource_pool import (SIZED, UNSIZED, ConstantBalancePool,
                                     ScriptedPool, StakePool)

from conftest import work_config

KEY = PublicKey("p", 0)
OTHER = PublicKey("q", 0)


def fresh_view(timed=False):
    genesis = genesis_block(timed=timed)
    index = BlockIndex(genesis)
    return BlockSetView.fresh(index, genesis), genesis


def drifting_pool():
    """Balances that move at every slot of a 40-slot run."""
    return ScriptedPool([(slot, {KEY: 1 + slot % 4, OTHER: 1})
                         for slot in range(1, 41)])


def work_request(view, genesis, key=KEY, parent=None, payload="c0"):
    cand = make_block(key, parent if parent else genesis.id, payload=payload)
    return PermitRequest(key=key, view=view, candidate=cand), cand


class TestWorkPermitter:
    def test_grant_is_deterministic(self):
        pool = ConstantBalancePool({KEY: 1}, mode=SIZED)
        permitter = WorkPermitter(Fraction(1, 2))
        view, genesis = fresh_view()
        req, _ = work_request(view, genesis)
        r1 = permitter.respond(req, pool, 3, seed=11)
        r2 = permitter.respond(req, pool, 3, seed=11)
        assert r1 == r2

    def test_zero_balance_never_granted(self):
        pool = ConstantBalancePool({OTHER: 1}, mode=SIZED)
        permitter = WorkPermitter(1)  # rate 1 with balance would always grant
        view, genesis = fresh_view()
        req, _ = work_request(view, genesis)
        assert permitter.respond(req, pool, 1, seed=0) is None

    def test_full_rate_grants_every_valid_candidate(self):
        pool = ConstantBalancePool({KEY: 1}, mode=SIZED)
        permitter = WorkPermitter(1)
        view, genesis = fresh_view()
        req, cand = work_request(view, genesis)
        resp = permitter.respond(req, pool, 1, seed=0)
        assert [m.id for m in resp.granted] == [cand.id]

    def test_candidate_must_be_signed_by_the_requesting_key(self):
        pool = ConstantBalancePool({KEY: 1, OTHER: 1}, mode=SIZED)
        permitter = WorkPermitter(1)
        view, genesis = fresh_view()
        cand = make_block(OTHER, genesis.id)
        req = PermitRequest(key=KEY, view=view, candidate=cand)
        assert permitter.respond(req, pool, 1, seed=0) is None

    def test_candidate_must_extend_a_longest_chain_tip(self):
        pool = ConstantBalancePool({KEY: 1}, mode=SIZED)
        permitter = WorkPermitter(1)
        view, genesis = fresh_view()
        b1 = make_block(KEY, genesis.id, payload="b1")
        view.add(b1)
        # extending genesis now stops short of the longest chain
        req, _ = work_request(view, genesis)
        assert permitter.respond(req, pool, 1, seed=0) is None
        req2 = PermitRequest(key=KEY, view=view,
                             candidate=make_block(KEY, b1.id))
        assert permitter.respond(req2, pool, 1, seed=0) is not None

    def test_timestamped_candidate_denied_in_untimed_lane(self):
        pool = ConstantBalancePool({KEY: 1}, mode=SIZED)
        permitter = WorkPermitter(1)
        view, genesis = fresh_view()
        cand = make_block(KEY, genesis.id, timestamp=4)
        req = PermitRequest(key=KEY, view=view, candidate=cand)
        assert permitter.respond(req, pool, 1, seed=0) is None

    def test_missing_candidate_denied(self):
        pool = ConstantBalancePool({KEY: 1}, mode=SIZED)
        view, _ = fresh_view()
        req = PermitRequest(key=KEY, view=view)
        assert WorkPermitter(1).respond(req, pool, 1, seed=0) is None

    def test_unsized_scale_ignores_realized_total(self):
        """Hidden-total law: the response is a function of the reference
        scale, never of the realized balance sum."""
        view, genesis = fresh_view()
        small = ConstantBalancePool({KEY: 2, OTHER: 1}, mode=UNSIZED,
                                    bounds=(3, 9))
        large = ConstantBalancePool({KEY: 2, OTHER: 7}, mode=UNSIZED,
                                    bounds=(3, 9))
        permitter = WorkPermitter(Fraction(1, 4), reference_scale=3)
        got = []
        for pool in (small, large):
            grants = 0
            for i in range(400):
                req, _ = work_request(view, genesis, payload=f"c{i}")
                if permitter.respond(req, pool, 5, seed=77) is not None:
                    grants += 1
            got.append(grants)
        assert got[0] == got[1] > 0

    def test_sized_scale_is_the_realized_total(self):
        view, genesis = fresh_view()
        pool = ConstantBalancePool({KEY: 1, OTHER: 3}, mode=SIZED)
        permitter = WorkPermitter(Fraction(1, 2))
        # threshold = 1/2 * 1/4 = 1/8; over 4000 candidate draws the
        # binomial 3-sigma band around 500 is +-63
        grants = sum(
            1 for i in range(4000)
            if permitter.respond(
                work_request(view, genesis, payload=f"s{i}")[0],
                pool, 2, seed=3) is not None)
        assert abs(grants - 500) <= 3 * math.sqrt(4000 * (1 / 8) * (7 / 8))

    def test_unsized_default_scale_is_lower_bound(self):
        view, genesis = fresh_view()
        pool = ConstantBalancePool({KEY: 2}, mode=UNSIZED, bounds=(2, 8))
        # rate 1/2, balance 2, scale alpha0=2 -> threshold 1/2
        permitter = WorkPermitter(Fraction(1, 2))
        grants = sum(
            1 for i in range(2000)
            if permitter.respond(
                work_request(view, genesis, payload=f"d{i}")[0],
                pool, 2, seed=5) is not None)
        assert abs(grants - 1000) <= 3 * math.sqrt(2000 * 0.25)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            WorkPermitter(Fraction(-1, 2))

    def test_a_reused_permitter_answers_like_a_fresh_one(self):
        """The per-key hash states and tail encodings a permitter keeps
        between requests change no verdict: under two seeds in turn, and
        with the candidate or the message set changing from one slot to
        the next."""
        pool = ConstantBalancePool({KEY: 1, OTHER: 1}, mode=SIZED)
        shared = WorkPermitter(1)  # threshold 1/2
        view, genesis = fresh_view()
        payload, got = "c0", []
        for slot in range(1, 61):
            if slot % 3 == 0:
                payload = f"c{slot}"  # a new candidate
            if slot % 5 == 0:  # a new message set, same longest chain
                view.add(Message(signer=OTHER, kind=PAYLOAD,
                                 payload=f"m{slot}"))
            for key in (KEY, OTHER):
                req, _ = work_request(view, genesis, key=key,
                                      payload=payload)
                for seed in (11, 12):
                    resp = shared.respond(req, pool, slot, seed)
                    fresh = WorkPermitter(1).respond(req, pool, slot, seed)
                    assert resp == fresh
                    got.append(resp is None)
        assert True in got and False in got

    @pytest.mark.parametrize("pool", [
        ConstantBalancePool({KEY: 1, OTHER: 1}, mode=SIZED),
        ConstantBalancePool({KEY: 1, OTHER: 0}, mode=SIZED),  # KEY holds all
        drifting_pool(),  # the cutoff is read again every slot
        ScriptedPool([(1, {KEY: 1, OTHER: 1}), (20, {KEY: 0, OTHER: 1})]),
    ], ids=["constant", "one-key", "drift", "scripted-to-zero"])
    def test_a_draw_answers_like_respond_at_every_slot(self, pool):
        view, genesis = fresh_view()
        reqs = [work_request(view, genesis, key=key)[0] for key in (KEY, OTHER)]
        reqs.append(work_request(view, genesis, payload="c1")[0])
        permitter = WorkPermitter(Fraction(1, 2), reference_scale=2)
        draws = [permitter.draw(req, pool, 9) for req in reqs]
        # no candidate: no slot grants it
        assert permitter.draw(PermitRequest(key=KEY, view=view), pool, 9) is None
        got = []
        for slot in range(1, 41):
            for req, draw in zip(reqs, draws):
                resp = draw(slot) if draw else None
                assert resp == WorkPermitter(
                    Fraction(1, 2), reference_scale=2).respond(req, pool,
                                                               slot, 9)
                # the lottery read afresh: balance and scale at this slot
                key, cand = req.key, req.candidate
                scale = pool.total(slot) if pool.mode == SIZED else 2
                won = rng.substream_u64(
                    9, "work", key.owner, key.index, slot, req.m_digest,
                    cand.id) < _cutoff(min(Fraction(1), Fraction(1, 2)
                                           * pool.balance_of(key, slot)
                                           / scale))
                assert resp == (PermitResponse(key=key, granted=(cand,))
                                if won else None)
                got.append(won)
        assert True in got and False in got

    @pytest.mark.parametrize("scale", [0, -3])
    def test_reference_scale_must_be_positive(self, scale):
        # 0 would divide by zero at the first request; -3 would grant nothing
        with pytest.raises(ConfigError, match="reference scale"):
            WorkPermitter(Fraction(1, 4), reference_scale=scale)


class TestDrawMemo:
    """The work permitter keeps each key's last set-up: the same request
    over an unchanged view gets the same draw back."""

    def test_respond_then_draw_sets_up_once(self, monkeypatch):
        setups = []  # a set-up checks its candidate's parent once
        is_active = BlockSetView.is_active

        def counted(self, block_id):
            setups.append(block_id)
            return is_active(self, block_id)

        monkeypatch.setattr(BlockSetView, "is_active", counted)
        pool = ConstantBalancePool({KEY: 1}, mode=SIZED)
        permitter = WorkPermitter(Fraction(1, 2))
        view, genesis = fresh_view()
        req, _ = work_request(view, genesis)
        resp = permitter.respond(req, pool, 4, seed=3)
        draw = permitter.draw(req, pool, 3)
        assert len(setups) == 1
        assert draw(4) == resp
        assert permitter.draw(req, pool, 3) is draw
        # another seed, pool or request object is set up afresh
        permitter.draw(req, pool, 5)
        permitter.draw(req, ConstantBalancePool({KEY: 1}, mode=SIZED), 5)
        permitter.draw(copy.copy(req), pool, 5)
        assert len(setups) == 4

    @pytest.mark.parametrize("pool", [
        ConstantBalancePool({KEY: 1, OTHER: 1}, mode=SIZED),
        drifting_pool(),
        ScriptedPool([(1, {KEY: 1, OTHER: 1}), (20, {KEY: 0, OTHER: 1})]),
    ], ids=["constant", "drift", "scripted-to-zero"])
    def test_a_request_over_a_grown_view_answers_like_a_fresh_one(self, pool):
        view, genesis = fresh_view()
        shared = WorkPermitter(Fraction(1, 2), reference_scale=2)
        reqs = [work_request(view, genesis, key=key)[0] for key in (KEY, OTHER)]
        got = []
        for slot in range(1, 41):
            if slot % 7 == 0:  # the set grows, its longest chain holds
                view.add(Message(signer=OTHER, kind=PAYLOAD,
                                 payload=f"m{slot}"))
            if slot == 30:  # the candidates stop extending the longest tip
                view.add(make_block(OTHER, genesis.id, payload="b30"))
            for req in reqs:
                fresh = WorkPermitter(Fraction(1, 2), reference_scale=2)
                expected = fresh.respond(copy.copy(req), pool, slot, 9)
                assert shared.respond(req, pool, slot, 9) == expected
                draw = shared.draw(req, pool, 9)
                assert (draw(slot) if draw else None) == expected
                got.append((slot < 30, expected is None))
        assert (True, False) in got and (True, True) in got
        assert (False, False) not in got

    @pytest.mark.parametrize("pool", ["constant", "drift"])
    def test_a_finished_run_frees_its_permitter(self, pool):
        """No stored draw refers back to the permitter, so reference
        counting alone frees it with the run."""
        config = work_config(duration=200)
        if pool == "drift":
            keys = [PublicKey(f"p{i}", 0) for i in range(3)]
            config.pool = ScriptedPool(
                [(slot, {key: 1 + (slot + i) % 3 for i, key in enumerate(keys)})
                 for slot in range(1, 201, 25)])
        gc.disable()
        try:
            transcript = run_execution(config)
            assert transcript.grants
            ref = weakref.ref(config.permitter)
            del config, transcript
            assert ref() is None
        finally:
            gc.enable()


class TestStakePermitter:
    def test_needs_sized_pool(self):
        permitter = StakePermitter(Fraction(1, 2))
        unsized = ConstantBalancePool({KEY: 1}, mode=UNSIZED, bounds=(1, 2))
        with pytest.raises(SettingMismatchError):
            permitter.check_pool(unsized)
        permitter.check_pool(StakePool({KEY: 1}))

    def test_lottery_is_per_key_and_slot(self):
        pool = StakePool({KEY: 1, OTHER: 1})
        permitter = StakePermitter(Fraction(1, 2), lookahead=10)
        view, _ = fresh_view(timed=True)
        r1 = permitter.respond(
            PermitRequest(key=KEY, view=view, target_slot=5), pool, 1, seed=2)
        r2 = permitter.respond(
            PermitRequest(key=KEY, view=view, target_slot=5), pool, 3, seed=2)
        # querying again later cannot re-roll the outcome
        assert r1 == r2

    def test_target_window(self):
        pool = StakePool({KEY: 1})
        permitter = StakePermitter(1, lookahead=4)
        view, _ = fresh_view(timed=True)

        def ask(target, slot):
            return permitter.respond(
                PermitRequest(key=KEY, view=view, target_slot=target),
                pool, slot, seed=1)

        assert ask(0, 1) is None        # slots start at 1
        assert ask(5, 1) is not None    # slot + lookahead boundary
        assert ask(6, 1) is None        # beyond the window
        assert ask(2, 7) is not None    # past targets stay queryable

    def test_leader_grant_rate(self):
        pool = StakePool({KEY: 1, OTHER: 2})
        permitter = StakePermitter(Fraction(3, 4), lookahead=10**6)
        view, _ = fresh_view(timed=True)
        wins = sum(
            1 for t in range(1, 4001)
            if permitter.respond(
                PermitRequest(key=KEY, view=view, target_slot=t),
                pool, 1, seed=8) is not None)
        # threshold = 3/4 * 1/3 = 1/4 per slot
        assert abs(wins - 1000) <= 3 * math.sqrt(4000 * 0.25 * 0.75)

    def test_a_reused_permitter_answers_like_a_fresh_one(self):
        pool = StakePool({KEY: 1, OTHER: 3})
        shared = StakePermitter(Fraction(1, 2), lookahead=4)
        view, _ = fresh_view(timed=True)
        got = []
        for slot in range(1, 41):
            for key in (KEY, OTHER):
                for seed in (5, 6):
                    req = PermitRequest(key=key, view=view,
                                        target_slot=slot + 1 + seed % 2)
                    resp = shared.respond(req, pool, slot, seed)
                    assert resp == StakePermitter(
                        Fraction(1, 2), lookahead=4).respond(req, pool, slot,
                                                              seed)
                    got.append(resp is None)
        assert True in got and False in got

    def test_candidate_carrying_request_denied(self):
        pool = StakePool({KEY: 1})
        view, genesis = fresh_view(timed=True)
        cand = make_block(KEY, genesis.id, timestamp=1)
        req = PermitRequest(key=KEY, view=view, candidate=cand, target_slot=1)
        assert StakePermitter(1).respond(req, pool, 1, seed=0) is None

    def test_rate_must_be_probability(self):
        with pytest.raises(ConfigError):
            StakePermitter(Fraction(3, 2))

    @pytest.mark.parametrize("lookahead", [0, -1])
    def test_lookahead_must_be_at_least_one_slot(self, lookahead):
        # slot t' is asked at t' - 1 or earlier: a window of 0 grants
        # nothing a staker can use
        with pytest.raises(ConfigError, match="lookahead"):
            StakePermitter(1, lookahead=lookahead)


class TestGrantCutoff:
    """A draw is granted when draw / 2**64 < threshold; the permitters
    compare it with the integer cutoff instead."""

    @given(st.fractions(min_value=0, max_value=1),
           st.integers(min_value=0, max_value=2**64 - 1))
    def test_cutoff_matches_the_exact_comparison(self, threshold, draw):
        assert (draw < _cutoff(threshold)) == (Fraction(draw, 2**64) < threshold)

    @given(st.fractions(min_value=0, max_value=1))
    def test_the_cutoff_is_the_first_denied_draw(self, threshold):
        c = _cutoff(threshold)
        assert 0 <= c <= 2**64
        if c > 0:
            assert Fraction(c - 1, 2**64) < threshold
        if c < 2**64:
            assert not Fraction(c, 2**64) < threshold

    def test_the_ends_of_the_range(self):
        assert _cutoff(Fraction(0)) == 0          # denies every draw
        assert _cutoff(Fraction(1)) == 2**64      # grants every draw
        assert _cutoff(Fraction(1, 2)) == 2**63
        assert _cutoff(Fraction(1, 3)) == 2**64 // 3 + 1

    def test_a_moving_pool_is_read_on_every_request(self):
        # KEY's balance drops to zero at slot 10; a cutoff kept from an
        # earlier slot would go on granting
        pool = ScriptedPool([(1, {KEY: 1, OTHER: 1}), (10, {KEY: 0, OTHER: 1})])
        permitter = WorkPermitter(2)  # threshold 1 while KEY holds half
        view, genesis = fresh_view()
        granted = [
            permitter.respond(
                work_request(view, genesis, payload=f"m{slot}")[0],
                pool, slot, seed=4) is not None
            for slot in range(1, 21)]
        assert granted == [True] * 9 + [False] * 11

    def test_a_moving_stake_pool_is_read_on_every_request(self):
        pool = ScriptedPool([(1, {KEY: 1, OTHER: 1}), (10, {KEY: 0, OTHER: 1})])
        permitter = StakePermitter(1, lookahead=30)
        view, _ = fresh_view(timed=True)
        # half the stake at rate 1: about half the targets before slot 10
        # are won, and none after
        wins = [t for t in range(1, 200)
                if permitter.respond(
                    PermitRequest(key=KEY, view=view, target_slot=t),
                    pool, t, seed=6) is not None]
        assert wins and all(t < 10 for t in wins)

    def test_each_constant_pool_keeps_its_own_cutoff(self):
        permitter = WorkPermitter(1)
        holds = ConstantBalancePool({KEY: 1}, mode=SIZED)
        lacks = ConstantBalancePool({OTHER: 1}, mode=SIZED)
        view, genesis = fresh_view()
        req, _ = work_request(view, genesis)
        verdicts = [permitter.respond(req, pool, slot, seed=0) is None
                    for slot, pool in enumerate((holds, lacks) * 3, 1)]
        assert verdicts == [False, True] * 3

    def test_each_constant_stake_pool_keeps_its_own_cutoff(self):
        permitter = StakePermitter(1, lookahead=10)
        holds, lacks = StakePool({KEY: 1}), StakePool({OTHER: 1})
        view, _ = fresh_view(timed=True)
        req = PermitRequest(key=KEY, view=view, target_slot=2)
        verdicts = [permitter.respond(req, pool, 1, seed=0) is None
                    for pool in (holds, lacks) * 3]
        assert verdicts == [False, True] * 3


class TestLeaderGrant:
    def test_covers_matching_block(self):
        grant = LeaderGrant(key=KEY, slot=7)
        good = make_block(KEY, "x", timestamp=7)
        assert grant.covers(good)
        assert not grant.covers(make_block(KEY, "x", timestamp=8))
        assert not grant.covers(make_block(OTHER, "x", timestamp=7))


class TestRequestBudget:
    def test_single_budget_one_request_per_key(self):
        view, genesis = fresh_view()
        r1, _ = work_request(view, genesis, payload="r1")
        r2, _ = work_request(view, genesis, payload="r2")
        timed = WorkPermitter.timed
        assert enforce_request_budget([r1], timed) == []
        assert enforce_request_budget([r1, r2], timed)  # same key twice

    def test_single_budget_rejects_target_slots(self):
        view, _ = fresh_view()
        req = PermitRequest(key=KEY, view=view, target_slot=3)
        assert enforce_request_budget([req], WorkPermitter.timed)

    def test_multi_budget_allows_many_targets(self):
        view, _ = fresh_view(timed=True)
        reqs = [PermitRequest(key=KEY, view=view, target_slot=t)
                for t in (1, 2, 3)]
        assert enforce_request_budget(reqs, StakePermitter.timed) == []

    def test_multi_budget_requires_target(self):
        view, _ = fresh_view(timed=True)
        req = PermitRequest(key=KEY, view=view)
        assert enforce_request_budget([req], StakePermitter.timed)
