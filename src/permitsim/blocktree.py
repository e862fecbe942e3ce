"""Block trees and message-state views.

Blocks form a tree rooted at the genesis block: every non-genesis block
names its parent by id.  A *chain* is a downward-closed block set with a
single leaf, i.e. the full ancestry of some block.  Two blocks are
*compatible* when they lie on a common chain (one is an ancestor of the
other or they are equal).

``BlockIndex`` is the per-execution registry of every block content seen
so far.  It caches each block's ancestry as a tuple, which makes
ancestor-at-height lookups, compatibility checks and confirmed-prefix
extraction O(1) after the first touch.

``BlockSetView`` is a message set (genesis plus the messages added to
it) with its active blocks, longest tip and digest; what a processor
holds is recorded by the engine, not by a view.  Blocks whose parents
have not arrived yet are buffered as *dangling* and activate once their
ancestry completes; only active blocks anchor chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DanglingBlockError
from .messages import Message


class BlockIndex:
    """Registry of block metadata for one execution."""

    def __init__(self, genesis: Message):
        if not genesis.is_genesis:
            raise ValueError("index must be rooted at a genesis block")
        self.genesis_id = genesis.id
        self._parent: dict[str, str | None] = {genesis.id: None}
        self._height: dict[str, int] = {genesis.id: 0}
        self._timestamp: dict[str, int | None] = {genesis.id: genesis.timestamp}
        # ancestry[b] = (genesis_id, ..., b); prefix_max_ts[b] mirrors it with
        # running maxima of timestamps (0 where untimed).
        self._ancestry: dict[str, tuple[str, ...]] = {genesis.id: (genesis.id,)}
        self._prefix_max_ts: dict[str, tuple[int, ...]] = {
            genesis.id: (genesis.timestamp or 0,)
        }

    def add(self, block: Message) -> None:
        if not block.is_block:
            raise ValueError("only blocks belong in the block index")
        if block.id in self._parent:
            return  # identical content already registered
        parent = block.parent
        if parent is None:
            raise ValueError("second genesis block is not allowed")
        if parent not in self._parent:
            raise DanglingBlockError(parent)
        self._parent[block.id] = parent
        self._height[block.id] = self._height[parent] + 1
        self._timestamp[block.id] = block.timestamp
        self._ancestry[block.id] = self._ancestry[parent] + (block.id,)
        prev = self._prefix_max_ts[parent][-1]
        self._prefix_max_ts[block.id] = self._prefix_max_ts[parent] + (
            max(prev, block.timestamp or 0),
        )

    def __contains__(self, block_id: str) -> bool:
        return block_id in self._parent

    def parent(self, block_id: str) -> str | None:
        return self._parent[block_id]

    def height(self, block_id: str) -> int:
        return self._height[block_id]

    def timestamp(self, block_id: str) -> int | None:
        return self._timestamp[block_id]

    def ancestry(self, block_id: str) -> tuple[str, ...]:
        """(genesis, ..., block)."""
        return self._ancestry[block_id]

    def ancestor_at_height(self, block_id: str, height: int) -> str:
        anc = self._ancestry[block_id]
        if not 0 <= height < len(anc):
            raise ValueError(f"height {height} outside ancestry of {block_id}")
        return anc[height]

    def max_timestamp_up_to_height(self, block_id: str, height: int) -> int:
        """Largest timestamp among the ancestry prefix of the given length."""
        return self._prefix_max_ts[block_id][height]

    def block_ids(self) -> list[str]:
        return list(self._parent)


# -- relations ---------------------------------------------------------------


def ancestors(block_id: str, index: BlockIndex) -> tuple[str, ...]:
    """The chain from genesis to the block, inclusive."""
    if block_id not in index:
        raise DanglingBlockError(block_id)
    return index.ancestry(block_id)


def compatible(a: str, b: str, index: BlockIndex) -> bool:
    """True when the blocks lie on a common chain."""
    ha, hb = index.height(a), index.height(b)
    if ha <= hb:
        return index.ancestor_at_height(b, ha) == a
    return index.ancestor_at_height(a, hb) == b


def leaves(block_ids, index: BlockIndex) -> set[str]:
    """Blocks in the set with no child in the set."""
    ids = set(block_ids)
    with_child = {index.parent(b) for b in ids if index.parent(b) in ids}
    return ids - with_child


def complete_in(block_id: str, present: set[str], index: BlockIndex) -> bool:
    """True when the block's full ancestry lies inside ``present``."""
    return all(a in present for a in index.ancestry(block_id))


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


def is_chain(block_ids, index: BlockIndex) -> bool:
    """True when the set is the full ancestry of a single block."""
    ids = list(block_ids)
    if not ids:
        return False
    tips = leaves(ids, index)
    if len(tips) != 1:
        return False
    return set(ids) == set(index.ancestry(next(iter(tips))))


# -- message sets -------------------------------------------------------------


@dataclass
class BlockSetView:
    """One message set: genesis plus the messages added to it.

    Tracks which blocks are *active* (complete ancestry present) and the
    longest active chain tip, and maintains a rolling XOR digest so permit
    requests can name the set compactly.
    """

    index: BlockIndex
    messages: dict[str, Message] = field(default_factory=dict)
    active: set[str] = field(default_factory=set)
    _dangling_by_parent: dict[str, list[str]] = field(default_factory=dict)
    _tip: str = ""
    _digest: int = 0

    def __post_init__(self):
        gid = self.index.genesis_id
        if gid not in self.messages:
            raise ValueError("views must be seeded with the genesis message")
        self.active.add(gid)
        self._tip = gid
        for mid in self.messages:
            self._digest ^= _id_bits(mid)

    @classmethod
    def fresh(cls, index: BlockIndex, genesis: Message) -> "BlockSetView":
        return cls(index=index, messages={genesis.id: genesis})

    def chain_view(self) -> "BlockSetView":
        """A fresh view holding genesis and the longest chain of this one."""
        chain = self.index.ancestry(self._tip)
        view = BlockSetView(index=self.index,
                            messages={b: self.messages[b] for b in chain})
        view.active.update(chain)
        view._tip = self._tip
        return view

    # -- contents ----------------------------------------------------------

    def __contains__(self, msg_id: str) -> bool:
        return msg_id in self.messages

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
        return self.index.height(self._tip) + 1

    def ids(self) -> set[str]:
        return set(self.messages)

    # -- updates -----------------------------------------------------------

    def add(self, msg: Message) -> list[str]:
        """Insert a message; returns the block ids newly activated by it.

        Payload messages and duplicates activate nothing.  A block whose
        parent is not yet active is parked and activated (together with any
        waiting descendants) once the gap closes.
        """
        if msg.id in self.messages:
            return []
        self.messages[msg.id] = msg
        self._digest ^= _id_bits(msg.id)
        if msg.is_block:
            self.index.add(msg)  # no-op when already registered
            if msg.parent in self.active:
                return self._activate(msg.id)
            self._dangling_by_parent.setdefault(msg.parent, []).append(msg.id)
        return []

    def _activate(self, block_id: str) -> list[str]:
        activated = []
        queue = [block_id]
        while queue:
            b = queue.pop()
            self.active.add(b)
            activated.append(b)
            h = self.index.height(b)
            if h > self.index.height(self._tip) or (
                h == self.index.height(self._tip) and b < self._tip
            ):
                self._tip = b
            queue.extend(self._dangling_by_parent.pop(b, ()))
        return activated


def _id_bits(msg_id: str) -> int:
    return int(msg_id[:16], 16)
