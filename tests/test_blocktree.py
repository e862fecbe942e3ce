"""Block indexes and per-processor views of the growing tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permitsim.blocktree import (BlockIndex, BlockSetView, ancestors,
                                 compatible, complete_in, is_chain, leaves,
                                 longest_chain_tip)
from permitsim.errors import DanglingBlockError
from permitsim.messages import PublicKey, genesis_block, make_block

from conftest import build_chain

P = PublicKey("p", 0)
Q = PublicKey("q", 0)


@pytest.fixture
def fork(index):
    """genesis -> a0 -> a1 -> a2 and genesis -> b0 -> b1."""
    a = build_chain(index, P, 3, tag="a")
    b = build_chain(index, Q, 2, tag="b")
    return a, b


class TestBlockIndex:
    def test_heights_and_ancestry(self, index, genesis, fork):
        a, b = fork
        assert index.height(genesis.id) == 0
        assert index.height(a[2].id) == 3
        assert index.ancestry(a[1].id) == (genesis.id, a[0].id, a[1].id)
        assert index.ancestor_at_height(a[2].id, 0) == genesis.id
        assert index.ancestor_at_height(a[2].id, 2) == a[1].id

    def test_dangling_parent_rejected(self, index):
        orphan = make_block(P, "no-such-block")
        with pytest.raises(DanglingBlockError):
            index.add(orphan)

    def test_second_genesis_rejected(self, index):
        with pytest.raises(ValueError):
            index.add(genesis_block(timed=True))

    def test_re_adding_is_idempotent(self, index, fork):
        a, _ = fork
        index.add(a[0])
        assert index.height(a[0].id) == 1

    def test_prefix_max_timestamp(self, genesis):
        index = BlockIndex(genesis)
        chain = build_chain(index, P, 4, timestamp=lambda i: [5, 3, 9, 2][i])
        tip = chain[-1].id
        # running maximum along the chain: 5, 5, 9, 9
        assert index.max_timestamp_up_to_height(tip, 1) == 5
        assert index.max_timestamp_up_to_height(tip, 2) == 5
        assert index.max_timestamp_up_to_height(tip, 3) == 9
        assert index.max_timestamp_up_to_height(tip, 4) == 9


class TestTreeQueries:
    def test_compatible_means_same_chain(self, index, fork):
        a, b = fork
        assert compatible(a[0].id, a[2].id, index)
        assert compatible(a[2].id, a[0].id, index)
        assert not compatible(a[0].id, b[0].id, index)

    def test_leaves_and_longest_tip(self, index, genesis, fork):
        a, b = fork
        ids = [genesis.id] + [m.id for m in a + b]
        assert leaves(ids, index) == {a[2].id, b[1].id}
        assert longest_chain_tip(ids, index) == a[2].id

    def test_longest_tip_tie_breaks_by_smallest_id(self, index, genesis):
        c = build_chain(index, P, 1, tag="c")[0]
        d = build_chain(index, Q, 1, tag="d")[0]
        ids = [genesis.id, c.id, d.id]
        assert longest_chain_tip(ids, index) == min(c.id, d.id)

    def test_complete_in_and_is_chain(self, index, genesis, fork):
        a, _ = fork
        present = {genesis.id, a[0].id, a[1].id}
        assert complete_in(a[1].id, present, index)
        assert not complete_in(a[2].id, present, index)
        assert is_chain([genesis.id, a[0].id], index)
        assert not is_chain([a[0].id, a[2].id], index)  # gap at a1

    def test_ancestors_is_the_inclusive_chain(self, index, genesis, fork):
        a, _ = fork
        assert ancestors(a[1].id, index) == (genesis.id, a[0].id, a[1].id)
        with pytest.raises(DanglingBlockError):
            ancestors("missing", index)


class TestBlockSetView:
    def test_add_returns_newly_active_blocks(self, view, index, genesis):
        a = build_chain(index, P, 2, tag="a")
        assert view.add(a[0]) == [a[0].id]
        assert view.add(a[0]) == []  # duplicates change nothing

    def test_out_of_order_arrival_parks_then_activates(self, view, index):
        a = build_chain(index, P, 3, tag="a")
        assert view.add(a[2]) == []          # grandparent missing: parked
        assert view.add(a[1]) == []          # still waiting for a0
        activated = view.add(a[0])           # unblocks the whole chain
        assert activated == [a[0].id, a[1].id, a[2].id]
        assert view.longest_tip == a[2].id
        assert view.longest_length == 4

    def test_digest_is_order_independent(self, index, genesis):
        a = build_chain(index, P, 2, tag="a")
        v1 = BlockSetView.fresh(index, genesis)
        v2 = BlockSetView.fresh(index, genesis)
        v1.add(a[0]); v1.add(a[1])
        v2.add(a[1]); v2.add(a[0])
        assert v1.digest == v2.digest

    def test_digest_changes_with_content(self, index, genesis):
        a = build_chain(index, P, 1, tag="a")
        v1 = BlockSetView.fresh(index, genesis)
        before = v1.digest
        v1.add(a[0])
        assert v1.digest != before

    def test_chain_view_is_the_longest_chain_alone(self, view, index,
                                                   genesis, fork):
        a, b = fork
        for blk in (*b, *a):
            view.add(blk)
        chain = view.chain_view()
        built = BlockSetView.fresh(index, genesis)
        for blk in a:
            built.add(blk)
        assert chain.ids() == built.ids() == {genesis.id, *(x.id for x in a)}
        assert chain.active == built.active
        assert chain.digest == built.digest
        assert chain.longest_tip == a[2].id
        # the copy grows on its own
        extra = make_block(P, a[2].id, payload="x")
        chain.add(extra)
        assert chain.longest_tip == extra.id
        assert extra.id not in view


@st.composite
def tree_orders(draw):
    """A random parent structure plus a random arrival order."""
    n = draw(st.integers(min_value=1, max_value=12))
    parents = [draw(st.integers(min_value=0, max_value=i)) for i in range(n)]
    order = draw(st.permutations(range(n)))
    return parents, list(order)


@given(tree_orders())
@settings(max_examples=120, deadline=None)
def test_view_active_set_ignores_arrival_order(case):
    """Whatever order blocks arrive in, once all have arrived the active
    set, the longest tip, and the digest agree with in-order insertion."""
    parents, order = case
    genesis = genesis_block(timed=False)
    index = BlockIndex(genesis)
    blocks = []
    for i, parent_pos in enumerate(parents):
        parent = genesis.id if parent_pos == 0 else blocks[parent_pos - 1].id
        blocks.append(make_block(P, parent, payload=f"n{i}"))
        index.add(blocks[-1])

    in_order = BlockSetView.fresh(index, genesis)
    for blk in blocks:
        in_order.add(blk)
    shuffled = BlockSetView.fresh(index, genesis)
    for pos in order:
        shuffled.add(blocks[pos])

    assert shuffled.active == in_order.active
    assert shuffled.longest_tip == in_order.longest_tip
    assert shuffled.digest == in_order.digest
