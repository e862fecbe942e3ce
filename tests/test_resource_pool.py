"""Resource pools: balances, modes, and the adversary-share predicates."""

from fractions import Fraction

import pytest

from permitsim.blocktree import BlockIndex
from permitsim.engine import run_execution
from permitsim.errors import ConfigError
from permitsim.messages import PublicKey
from permitsim.resource_pool import (SIZED, UNSIZED, ConstantBalancePool,
                                     ScriptedPool, StakePool, dominates,
                                     is_q_bounded, sample_unsized_pool)

from conftest import build_chain

A = PublicKey("a", 0)
B = PublicKey("b", 0)
C = PublicKey("c", 0)


def test_constant_pool_balances_and_total():
    pool = ConstantBalancePool({A: 3, B: 1}, mode=SIZED)
    assert pool.balance_of(A, 1) == 3
    assert pool.balance_of(C, 1) == 0
    assert pool.total(1) == 4
    assert pool.mode == SIZED


def test_balances_must_be_nonnegative():
    with pytest.raises(ConfigError):
        ConstantBalancePool({A: -1}, mode=SIZED)


def test_unsized_pool_requires_bounds():
    with pytest.raises(ConfigError):
        ConstantBalancePool({A: 1}, mode=UNSIZED)
    pool = ConstantBalancePool({A: 1, B: 2}, mode=UNSIZED, bounds=(1, 5))
    assert pool.bounds == (1, 5)


def test_bounds_must_be_ordered_and_positive():
    with pytest.raises(ConfigError):
        ConstantBalancePool({A: 1}, mode=UNSIZED, bounds=(0, 2))
    with pytest.raises(ConfigError):
        ConstantBalancePool({A: 1}, mode=UNSIZED, bounds=(3, 2))


class TestQBound:
    def test_exact_boundary_counts_as_bounded(self):
        pool = ConstantBalancePool({A: 1, B: 3}, mode=SIZED)
        assert is_q_bounded(pool, [A], Fraction(1, 4))
        assert not is_q_bounded(pool, [A], Fraction(1, 5))

    def test_multiple_adversary_keys_sum(self):
        pool = ConstantBalancePool({A: 1, B: 1, C: 2}, mode=SIZED)
        assert is_q_bounded(pool, [A, B], Fraction(1, 2))
        assert not is_q_bounded(pool, [A, B, C], Fraction(1, 2))


class TestDominates:
    # 0.6 vs 0.4 split: strictly above theta = 1.4, not above 1.5
    def test_six_to_four_split(self):
        pool = ConstantBalancePool({A: Fraction(6, 10), B: Fraction(4, 10)},
                                   mode=SIZED)
        assert dominates(pool, [A], [B], Fraction(14, 10))
        assert not dominates(pool, [A], [B], Fraction(15, 10))

    def test_domination_is_strict(self):
        pool = ConstantBalancePool({A: 2, B: 1}, mode=SIZED)
        assert not dominates(pool, [A], [B], 2)  # 2 > 2*1 is false
        assert dominates(pool, [A], [B], Fraction(19, 10))

    def test_non_constant_pool_needs_contexts(self):
        pool = ScriptedPool([(1, {A: 1, B: 1}), (10, {A: 3, B: 1})])
        with pytest.raises(ConfigError):
            dominates(pool, [A], [B], 1)
        assert dominates(pool, [A], [B], Fraction(1, 2),
                         contexts=[(1, None), (10, None)])
        assert not dominates(pool, [A], [B], 2,
                             contexts=[(1, None), (10, None)])


def test_scripted_pool_segments():
    pool = ScriptedPool([(1, {A: 1}), (5, {A: 4})])
    assert pool.balance_of(A, 4) == 1
    assert pool.balance_of(A, 5) == 4
    assert pool.total(9) == 4


def test_scripted_pool_declares_every_key_that_ever_holds_balance():
    pool = ScriptedPool([(1, {A: 1, B: 5}), (10, {A: 1, B: 0}),
                         (20, {A: 0, B: 0, C: 1})])
    assert pool.declared_keys() == [A, B, C]


def test_rewarded_stake_pool_walks_each_chain_once_per_cutoff(monkeypatch):
    from test_transcript_digests import withheld_reward_config

    walks, asked = [], set()
    chain = BlockIndex.chain
    balance_of, total = StakePool.balance_of, StakePool.total

    def counted_chain(index, tip):
        walks.append(tip)
        return chain(index, tip)

    def counted_balance_of(pool, key, slot, view=None):
        asked.add((view.longest_tip, slot - pool.min_recording_age))
        return balance_of(pool, key, slot, view)

    def counted_total(pool, slot, view=None):
        asked.add((view.longest_tip, slot - pool.min_recording_age))
        return total(pool, slot, view)

    monkeypatch.setattr(BlockIndex, "chain", counted_chain)
    monkeypatch.setattr(StakePool, "balance_of", counted_balance_of)
    monkeypatch.setattr(StakePool, "total", counted_total)
    run_execution(withheld_reward_config())
    # both reads of a request share one walk, and the withholder's fork
    # views share the walks of the public chain's tips
    assert len(walks) == len(asked) > 100


def test_stake_pool_balances_follow_the_seasoned_chain(index, view):
    pool = StakePool({A: 2, B: 1}, reward=1, min_recording_age=3)
    for blk in build_chain(index, A, 3, timestamp=lambda i: i + 1):
        view.add(blk)
    # blocks at slots 1, 2, 3 season at 4, 5, 6
    assert [pool.balance_of(A, s, view) for s in (3, 4, 5, 6, 9)] == \
        [2, 3, 4, 5, 5]
    assert pool.balance_of(B, 9, view) == 1
    assert pool.total(9, view) == 6
    fork = view.chain_view()
    (blk,) = build_chain(index, B, 1, parent=fork.longest_tip, timestamp=4)
    fork.add(blk)
    assert pool.balance_of(B, 7, fork) == 2 and pool.total(7, fork) == 7
    assert pool.balance_of(B, 7, view) == 1 and pool.total(7, view) == 6


def test_stake_pool_reward_needs_view():
    pool = StakePool({A: 5}, reward=1)
    # without a view the recorded chain is unknown: genesis stake only
    assert pool.balance_of(A, 3) == 5
    assert not pool.is_constant
    assert StakePool({A: 5}).is_constant


class TestSampleUnsizedPool:
    def test_constant_profile_total_inside_bounds(self):
        pool = sample_unsized_pool((2, 6), {"a/0": Fraction(1, 2),
                                            "b/0": Fraction(1, 2)},
                                   "constant", seed=9, duration=100)
        total = pool.total(1)
        assert 2 <= total <= 6
        assert pool.total(50) == total
        assert pool.balance_of(A, 1) == total / 2

    def test_drift_profile_moves_between_bounds(self):
        pool = sample_unsized_pool((2, 6), {"a/0": 1}, "drift",
                                   seed=9, duration=11)
        assert pool.total(1) == 2
        assert pool.total(11) == 6
        assert pool.total(1) < pool.total(6) < pool.total(11)

    def test_step_profile(self):
        pool = sample_unsized_pool((2, 6), {"a/0": 1}, "step",
                                   seed=9, duration=10)
        assert pool.total(5) == 2
        assert pool.total(6) == 6

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            sample_unsized_pool((1, 2), {"a/0": Fraction(1, 2)},
                                "constant", seed=1, duration=10)

    def test_same_seed_same_pool(self):
        p1 = sample_unsized_pool((2, 6), {"a/0": 1}, "constant", 4, 10)
        p2 = sample_unsized_pool((2, 6), {"a/0": 1}, "constant", 4, 10)
        assert p1.total(1) == p2.total(1)
