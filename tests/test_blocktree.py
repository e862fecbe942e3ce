"""Block indexes and per-processor views of the growing tree."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permitsim.blocktree import BlockIndex, BlockSetView, compatible
from permitsim.errors import DanglingBlockError
from permitsim.messages import (PAYLOAD, Message, PublicKey, genesis_block,
                                make_block)

from conftest import (block_ids, build_chain, complete_in, leaves,
                      longest_chain_tip)

P = PublicKey("p", 0)
Q = PublicKey("q", 0)


def active_set(view):
    """Every block of the index that the view holds as active."""
    return {b for b in block_ids(view.index) if view.is_active(b)}


def view_ids(view):
    """Every message id the view holds: its base's ancestry and its adds."""
    return set(view.index.ancestry(view._base)) | view._held


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

    def test_complete_in(self, index, genesis, fork):
        a, _ = fork
        present = {genesis.id, a[0].id, a[1].id}
        assert complete_in(a[1].id, present, index)
        assert not complete_in(a[2].id, present, index)

    def test_ancestors_is_the_inclusive_chain(self, index, genesis, fork):
        a, _ = fork
        assert index.ancestry(a[1].id) == (genesis.id, a[0].id, a[1].id)
        with pytest.raises(KeyError):
            index.ancestry("missing")


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
        assert view_ids(chain) == view_ids(built) == {genesis.id, *(x.id for x in a)}
        assert active_set(chain) == active_set(built)
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

    assert active_set(shuffled) == active_set(in_order)
    assert shuffled.longest_tip == in_order.longest_tip
    assert shuffled.digest == in_order.digest


@st.composite
def deliveries(draw):
    """A random tree and a delivery sequence over it: any order, so
    children may come before their parents, with repeats and payloads.
    ``fork`` is how many blocks a public view takes, in tree order, before
    a chain view of it receives the sequence (``None``: a fresh view)."""
    n = draw(st.integers(min_value=1, max_value=14))
    parents = [draw(st.integers(min_value=0, max_value=i)) for i in range(n)]
    payloads = draw(st.integers(min_value=0, max_value=3))
    sequence = draw(st.lists(st.integers(min_value=0, max_value=n + payloads - 1),
                             max_size=2 * (n + payloads)))
    fork = draw(st.none() | st.integers(min_value=0, max_value=n))
    return parents, payloads, sequence, fork


@given(deliveries())
@settings(max_examples=300, deadline=None)
def test_view_add_matches_a_recomputation(case):
    """After every add, the activations it returned, the active set, the
    longest tip and the digest equal those recomputed from the messages
    the view holds."""
    parents, payloads, sequence, fork = case
    genesis = genesis_block(timed=False)
    index = BlockIndex(genesis)
    blocks = []
    for i, parent_pos in enumerate(parents):
        parent = genesis.id if parent_pos == 0 else blocks[parent_pos - 1].id
        blocks.append(make_block(P if i % 2 else Q, parent, payload=f"n{i}"))
        index.add(blocks[-1])
    messages = blocks + [Message(P, kind=PAYLOAD, payload=f"x{i}")
                         for i in range(payloads)]

    view = BlockSetView.fresh(index, genesis)
    held = {genesis.id}
    if fork is not None:
        public = BlockSetView.fresh(index, genesis)
        for blk in blocks[:fork]:
            public.add(blk)
        view = public.chain_view()
        held = set(index.ancestry(public.longest_tip))
    active = {b for b in held if complete_in(b, held, index)}
    for pos in sequence:
        msg = messages[pos]
        activated = view.add(msg)
        held.add(msg.id)
        now_active = {b for b in held if b in index and complete_in(b, held, index)}
        assert len(activated) == len(set(activated))
        assert set(activated) == now_active - active
        active = now_active
        assert active_set(view) == active
        assert view.longest_tip == longest_chain_tip(held, index)
        assert view.longest_length == index.height(view.longest_tip) + 1
        digest = 0
        for mid in held:
            digest ^= int(mid[:16], 16)
        assert view.digest == digest


# -- the index against a naive parent walk -----------------------------------


def random_tree(rng: random.Random, trunk: int, branches: int):
    """A trunk of ``trunk`` blocks plus ``branches`` side blocks, each hung
    off a random earlier block; timestamps are random or absent.  Returns
    the blocks in insertion order and each block's parent and timestamp by
    id."""
    genesis = genesis_block(timed=False)
    blocks = [genesis]
    parent_of = {genesis.id: None}
    ts_of = {genesis.id: None}
    order = ["trunk"] * trunk + ["branch"] * branches
    rng.shuffle(order)
    tip = genesis.id
    for i, kind in enumerate(order):
        parent = tip if kind == "trunk" else rng.choice(blocks).id
        ts = rng.choice([None, rng.randrange(0, 10 * (trunk + branches))])
        blk = make_block(P, parent, timestamp=ts, payload=f"n{i}")
        blocks.append(blk)
        parent_of[blk.id] = parent
        ts_of[blk.id] = ts
        if kind == "trunk":
            tip = blk.id
    return blocks, parent_of, ts_of


def naive_ancestry(parent_of, b):
    chain = []
    while b is not None:
        chain.append(b)
        b = parent_of[b]
    return tuple(reversed(chain))


@pytest.mark.parametrize("shape", [(0, 1), (1, 0), (5, 20), (60, 40),
                                   (3000, 300)], ids=str)
@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=10, deadline=None)
def test_index_queries_match_a_parent_walk(shape, seed):
    rng = random.Random(seed)
    blocks, parent_of, ts_of = random_tree(rng, *shape)
    index = BlockIndex(blocks[0])
    for blk in blocks[1:]:
        index.add(blk)
    ids = [b.id for b in blocks]
    for b in rng.sample(ids, min(len(ids), 60)):
        chain = naive_ancestry(parent_of, b)
        assert index.ancestry(b) == chain
        assert index.height(b) == len(chain) - 1
        heights = {0, len(chain) - 1}
        heights.update(rng.randrange(len(chain)) for _ in range(10))
        for h in heights:
            assert index.ancestor_at_height(b, h) == chain[h]
            assert index.max_timestamp_up_to_height(b, h) == max(
                ts_of[x] or 0 for x in chain[:h + 1])
        with pytest.raises(ValueError):
            index.ancestor_at_height(b, len(chain))
        other = rng.choice(ids)
        other_chain = naive_ancestry(parent_of, other)
        assert compatible(b, other, index) == (
            b in other_chain or other in chain)
        assert [m.id for m in index.chain(b)] == list(reversed(chain))


def test_index_memory_grows_linearly_with_the_chain():
    """A block costs the index O(1) memory: twice the chain, at most 2.3
    times the allocation (full ancestry tuples gave about 4 times)."""
    genesis = genesis_block(timed=True)
    blocks, tip = [], genesis.id
    for i in range(4000):
        blocks.append(make_block(P, tip, timestamp=i + 1))
        tip = blocks[-1].id

    def allocated(n):
        tracemalloc.start()
        try:
            index = BlockIndex(genesis)
            for blk in blocks[:n]:
                index.add(blk)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert allocated(4000) <= 2.3 * allocated(2000)


# -- fork views against views built by adds ----------------------------------


def assert_same_view(a, b, index):
    assert view_ids(a) == view_ids(b)
    assert active_set(a) == active_set(b)
    assert a.digest == b.digest
    assert a.longest_tip == b.longest_tip
    assert a.longest_length == b.longest_length
    for x in block_ids(index):
        assert (x in a) == (x in b)


def test_chain_view_agrees_with_a_view_built_by_adds():
    rng = random.Random(7)
    blocks, _, _ = random_tree(rng, 40, 25)
    genesis = blocks[0]
    index = BlockIndex(genesis)
    public = BlockSetView.fresh(index, genesis)
    for blk in blocks[1:]:
        public.add(blk)
    fork = public.chain_view()
    built = BlockSetView.fresh(index, genesis)
    for bid in index.ancestry(public.longest_tip)[1:]:
        built.add(index.block(bid))
    assert_same_view(fork, built, index)

    chain = index.ancestry(public.longest_tip)
    mid = chain[len(chain) // 2]
    stale = make_block(Q, mid, payload="stale grant")     # off a mid-chain block
    ext = make_block(Q, public.longest_tip, payload="x")  # extends the base tip
    ext2 = make_block(Q, ext.id, payload="y")
    for blk in (stale, ext, ext2):
        index.add(blk)
    # ext2 parks until ext arrives; chain[3] and chain[-1] are re-adds of
    # base-chain blocks
    for msg in (ext2, stale, index.block(chain[3]), ext,
                index.block(chain[-1]), ext2):
        assert fork.add(msg) == built.add(msg)
        assert_same_view(fork, built, index)
    assert fork.longest_tip == ext2.id
    assert fork.is_active(stale.id)
    # a fork of a fork shares the same index and starts from its tip
    assert_same_view(fork.chain_view(), built.chain_view(), index)
    # the forked view is untouched by the fork's adds
    assert ext.id not in public and stale.id not in public
