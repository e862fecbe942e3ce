"""Block trees and message-state views.

Blocks form a tree rooted at the genesis block: every non-genesis block
names its parent by id.  A *chain* is a downward-closed block set with a
single leaf, i.e. the full ancestry of some block.  Two blocks are
*compatible* when they lie on a common chain (one is an ancestor of the
other or they are equal).

``BlockIndex`` is the per-execution registry of every block content seen
so far.  Each block costs it O(1) memory: its parent, height, the block
itself, one skew-binary jump pointer, and two running values over its
chain (the largest timestamp and the XOR of the block ids' digest bits).
The jump pointers (Myers, "An applicative random-access stack", 1983)
answer ancestor-at-height and compatibility queries in O(log h); a full
ancestry tuple is built by walking parents, only when a caller asks for
one.

``BlockSetView`` is a message set (genesis plus the messages added to
it) with its active blocks, longest tip and digest; what a processor
holds is recorded by the engine, not by a view.  Blocks whose parents
have not arrived yet are buffered as *dangling* and activate once their
ancestry completes; only active blocks anchor chains.  A view may start
from the whole chain of a base block, which it shares through the index
instead of copying: ``chain_view`` forks a view in O(1).
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import DanglingBlockError
from .messages import Message


class BlockIndex:
    """Registry of block metadata for one execution."""

    def __init__(self, genesis: Message):
        if not genesis.is_genesis:
            raise ValueError("index must be rooted at a genesis block")
        gid = genesis.id
        self.genesis_id = gid
        self._block: dict[str, Message] = {gid: genesis}
        self._parent: dict[str, str | None] = {gid: None}
        self._height: dict[str, int] = {gid: 0}
        # a jump pointer to an ancestor; the heights it skips follow the
        # skew-binary numbers, so a level-ancestor walk takes O(log h) hops
        self._jump: dict[str, str] = {gid: gid}
        # over the chain genesis..b: the running max timestamp (0 where
        # untimed) and the XOR of _id_bits
        self._max_ts: dict[str, int] = {gid: genesis.timestamp or 0}
        self._chain_xor: dict[str, int] = {gid: _id_bits(gid)}

    def add(self, block: Message) -> None:
        if not block.is_block:
            raise ValueError("only blocks belong in the block index")
        bid = block.id
        if bid in self._parent:
            return  # identical content already registered
        parent = block.parent
        if parent is None:
            raise ValueError("second genesis block is not allowed")
        if parent not in self._parent:
            raise DanglingBlockError(parent)
        height, jump = self._height, self._jump
        up = jump[parent]
        if height[parent] - height[up] == height[up] - height[jump[up]]:
            jump[bid] = jump[up]
        else:
            jump[bid] = parent
        self._block[bid] = block
        self._parent[bid] = parent
        height[bid] = height[parent] + 1
        self._max_ts[bid] = max(self._max_ts[parent], block.timestamp or 0)
        self._chain_xor[bid] = self._chain_xor[parent] ^ _id_bits(bid)

    def __contains__(self, block_id: str) -> bool:
        return block_id in self._parent

    def block(self, block_id: str) -> Message:
        return self._block[block_id]

    def parent(self, block_id: str) -> str | None:
        return self._parent[block_id]

    def height(self, block_id: str) -> int:
        return self._height[block_id]

    def timestamp(self, block_id: str) -> int | None:
        return self._block[block_id].timestamp

    def chain_digest(self, block_id: str) -> int:
        """XOR of ``_id_bits`` over the block's chain, genesis included."""
        return self._chain_xor[block_id]

    def chain(self, block_id: str) -> Iterator[Message]:
        """The blocks of the block's chain, from it back to genesis."""
        block, parent = self._block, self._parent
        b = block_id
        while b is not None:
            yield block[b]
            b = parent[b]

    def ancestry(self, block_id: str) -> tuple[str, ...]:
        """(genesis, ..., block), built in O(h) by walking parents."""
        chain = []
        parent = self._parent
        b = block_id
        while b is not None:
            chain.append(b)
            b = parent[b]
        chain.reverse()
        return tuple(chain)

    def ancestor_at_height(self, block_id: str, height: int) -> str:
        h = self._height[block_id]
        if not 0 <= height <= h:
            raise ValueError(f"height {height} outside ancestry of {block_id}")
        heights, jump, parent = self._height, self._jump, self._parent
        b = block_id
        while h > height:
            up = jump[b]
            if heights[up] >= height:
                b = up
                h = heights[up]
            else:
                b = parent[b]
                h -= 1
        return b

    def max_timestamp_up_to_height(self, block_id: str, height: int) -> int:
        """Largest timestamp (0 where untimed) among the ancestors at
        heights 0..height."""
        return self._max_ts[self.ancestor_at_height(block_id, height)]


# -- relations ---------------------------------------------------------------


def compatible(a: str, b: str, index: BlockIndex) -> bool:
    """True when the blocks lie on a common chain."""
    ha, hb = index.height(a), index.height(b)
    if ha <= hb:
        return index.ancestor_at_height(b, ha) == a
    return index.ancestor_at_height(a, hb) == b


def complete_in(block_id: str, present: set[str], index: BlockIndex) -> bool:
    """True when the block's full ancestry lies inside ``present``."""
    return present.issuperset(index.ancestry(block_id))


def longest_chain_tip(block_ids, index: BlockIndex) -> str | None:
    """Tip of the longest chain inside the set (ties: smallest id).

    Only blocks whose full ancestry is inside the set can anchor chains;
    with no such block there is no chain and the result is None.
    """
    present = set(block_ids)
    best: tuple[int, str] | None = None
    for b in present:
        if b not in index or not complete_in(b, present, index):
            continue
        cand = (-index.height(b), b)
        if best is None or cand < best:
            best = cand
    return None if best is None else best[1]


# -- message sets -------------------------------------------------------------


class BlockSetView:
    """One message set: the chain of a base block plus the messages added.

    A fresh view's base is genesis.  A view from ``chain_view`` has the
    forked view's longest tip as its base and shares that chain through
    the index: a block ``x`` is held and active on the base chain when
    ``ancestor_at_height(base, height(x)) == x``, and the view itself
    stores only what is added after the fork.

    Tracks which blocks are *active* (complete ancestry present) and the
    longest active chain tip, and maintains a rolling XOR digest so permit
    requests can name the set compactly.
    """

    def __init__(self, index: BlockIndex, base: str | None = None):
        self.index = index
        self._base = index.genesis_id if base is None else base
        self._base_height = index.height(self._base)
        # held beyond the base chain: every message id, and the active blocks
        self._held: set[str] = set()
        self._active: set[str] = set()
        self._dangling_by_parent: dict[str, list[str]] = {}
        self._tip = self._base
        self._tip_height = self._base_height
        self._digest = index.chain_digest(self._base)

    @classmethod
    def fresh(cls, index: BlockIndex, genesis: Message) -> "BlockSetView":
        if genesis.id != index.genesis_id:
            raise ValueError("views must be seeded with the genesis message")
        return cls(index)

    def chain_view(self) -> "BlockSetView":
        """A new view holding genesis and the longest chain of this one;
        it shares the chain with this view instead of copying it."""
        return BlockSetView(self.index, self._tip)

    # -- contents ----------------------------------------------------------

    def _on_base(self, msg_id: str) -> bool:
        """True when the message is a block of the base chain."""
        h = self.index._height.get(msg_id)  # None: not a registered block
        if h is None or h > self._base_height:
            return False
        if h == self._base_height:
            return msg_id == self._base
        return self.index.ancestor_at_height(self._base, h) == msg_id

    def __contains__(self, msg_id: str) -> bool:
        return msg_id in self._held or self._on_base(msg_id)

    def is_active(self, block_id: str) -> bool:
        """True when the block and its whole ancestry are held."""
        return block_id in self._active or self._on_base(block_id)

    @property
    def size(self) -> int:
        """How many messages were added; a view only grows, so an equal
        size is an unchanged view."""
        return len(self._held)

    @property
    def digest(self) -> int:
        """Order-independent digest of the current message set."""
        return self._digest

    @property
    def longest_tip(self) -> str:
        """Tip of the longest active chain (ties: smallest id)."""
        return self._tip

    @property
    def longest_length(self) -> int:
        """Length of the longest active chain, genesis included."""
        return self._tip_height + 1

    # -- updates -----------------------------------------------------------

    def add(self, msg: Message) -> list[str]:
        """Insert a message; returns the block ids newly activated by it.

        Payload messages and duplicates activate nothing.  A block whose
        parent is not yet active is parked and activated (together with any
        waiting descendants) once the gap closes.  A block that extends an
        active parent while nothing is parked, the usual case, activates
        only itself.
        """
        mid = msg.id
        if mid in self._held or self._on_base(mid):
            return []
        self._held.add(mid)
        self._digest ^= _id_bits(mid)
        if not msg.is_block:
            return []
        if mid not in self.index._parent:  # registered by its first holder
            self.index.add(msg)
        parent = msg.parent
        if parent in self._active or self._on_base(parent):
            if self._dangling_by_parent:
                return self._activate(mid)
            # nothing is parked, so nothing waits on this block
            self._active.add(mid)
            h = self.index._height[mid]
            if h > self._tip_height or (h == self._tip_height and mid < self._tip):
                self._tip, self._tip_height = mid, h
            return [mid]
        self._dangling_by_parent.setdefault(parent, []).append(mid)
        return []

    def _activate(self, block_id: str) -> list[str]:
        activated = []
        queue = [block_id]
        height = self.index._height
        while queue:
            b = queue.pop()
            self._active.add(b)
            activated.append(b)
            h = height[b]
            if h > self._tip_height or (h == self._tip_height and b < self._tip):
                self._tip, self._tip_height = b, h
            queue.extend(self._dangling_by_parent.pop(b, ()))
        return activated


def _id_bits(msg_id: str) -> int:
    return int(msg_id[:16], 16)
