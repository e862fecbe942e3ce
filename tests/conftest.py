"""Shared builders for the test suite."""

from fractions import Fraction

import pytest

from permitsim.blocktree import BlockIndex, BlockSetView
from permitsim.engine import ExecutionConfig, ProcessorSpec
from permitsim.messages import PublicKey, genesis_block, make_block
from permitsim.network import SynchronySchedule
from permitsim.permitter import StakePermitter, WorkPermitter
from permitsim.protocols import (DensityCertificateRule, HonestStakeStrategy,
                                 HonestWorkStrategy, KDeepRule)
from permitsim.resource_pool import SIZED, ConstantBalancePool, StakePool


def block_ids(index: BlockIndex) -> list[str]:
    """Every block id the index holds, in the order it took them."""
    return list(index._parent)


def leaves(block_ids, index: BlockIndex) -> set[str]:
    """Blocks in the set with no child in the set."""
    ids = set(block_ids)
    with_child = {index.parent(b) for b in ids if index.parent(b) in ids}
    return ids - with_child


# -- reference confirmation: the batch definitions the rules' trackers are
# checked against, and an exhaustive certificate search over them ----------


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


def brute_force_k_deep(msg_ids, k, index):
    """Reference implementation: longest chain, smallest-tip tie break,
    then drop the last k blocks but never genesis."""
    tip = longest_chain_tip(msg_ids, index)
    if tip is None:
        return ()
    chain = index.ancestry(tip)
    return chain[:max(1, len(chain) - k)]


def reference_witnesses(rule: DensityCertificateRule, msg_ids,
                        index: BlockIndex) -> list[tuple[int, str]]:
    """The sorted (window i, leaf) keys of every witness present inside
    the message set: at least ``threshold`` blocks timestamped inside
    window i hang off the length-i chain ending at the leaf.

    Only a block whose whole chain lies in the set counts; a witness's
    leaf is then on a counted block's chain, so it lies in the set too.
    """
    present = {m for m in msg_ids if m in index}
    complete: set[str] = set()
    counts: dict[tuple[int, str], int] = {}
    for b in sorted(present, key=index.height):  # parents first
        parent = index.parent(b)
        if parent is not None and parent not in complete:
            continue
        complete.add(b)
        key = rule.admit(b, index)
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
    return sorted(key for key, count in counts.items()
                  if count >= rule.threshold)


def reference_confirm(rule, msg_ids, index: BlockIndex) -> tuple[str, ...]:
    """The chain ``rule`` confirms on the set, computed in one batch."""
    if isinstance(rule, KDeepRule):
        return brute_force_k_deep(msg_ids, rule.k, index)
    # the longest witnessed chain, then the smallest leaf id
    best = min(reference_witnesses(rule, msg_ids, index), default=None,
               key=lambda key: (-key[0], key[1]))
    return () if best is None else index.ancestry(best[1])


EXHAUSTIVE_LEDGER_CAP = 15


class LedgerTooLargeError(ValueError):
    """The exhaustive certificate search refuses ledgers above its cap."""


def exhaustive_certifiable_blocks(msg_ids, rule, index: BlockIndex) -> set[str]:
    """Every block some subset of the set (with genesis) confirms under
    the reference confirmation, by enumerating the subsets."""
    ids = sorted({m for m in msg_ids if m in index and m != index.genesis_id})
    if len(ids) > EXHAUSTIVE_LEDGER_CAP:
        raise LedgerTooLargeError(
            f"{len(ids)} messages exceed the exhaustive cap of "
            f"{EXHAUSTIVE_LEDGER_CAP}")
    certified: set[str] = set()
    n = len(ids)
    for mask in range(1 << n):
        subset = [ids[i] for i in range(n) if mask >> i & 1]
        subset.append(index.genesis_id)
        certified.update(reference_confirm(rule, subset, index))
    return certified


def confirmed_series(transcript, proc: str) -> list[tuple[str | None, int]]:
    """Per-slot (confirmed tip, confirmed length), slots 1..duration."""
    out: list[tuple[str | None, int]] = []
    current: tuple[str | None, int] = (None, 0)
    points = [(s, tip, ln) for s, p, tip, ln in transcript.confirmations
              if p == proc]
    pi = 0
    for slot in range(1, transcript.duration + 1):
        while pi < len(points) and points[pi][0] == slot:
            current = (points[pi][1], points[pi][2])
            pi += 1
        out.append(current)
    return out


def transcript_lines(transcript) -> list[str]:
    """A transcript's records, one line of text each."""
    return transcript.to_bytes().decode().split("\n")[:-1]


def build_chain(index: BlockIndex, signer: PublicKey, length: int,
                parent: str | None = None, *, timestamp=None, tag=""):
    """Append ``length`` blocks under ``parent`` (default: genesis)."""
    tip = parent if parent is not None else index.genesis_id
    out = []
    for i in range(length):
        ts = timestamp(i) if callable(timestamp) else timestamp
        blk = make_block(signer, tip, timestamp=ts, payload=f"{tag}{i}")
        index.add(blk)
        out.append(blk)
        tip = blk.id
    return out


@pytest.fixture
def genesis():
    return genesis_block(timed=False)


@pytest.fixture
def index(genesis):
    return BlockIndex(genesis)


@pytest.fixture
def view(index, genesis):
    return BlockSetView.fresh(index, genesis)


def work_config(*, duration=300, processors=3, rate=Fraction(1, 10),
                confirm_k=4, delta=2, epsilon=0.1, delay=1, seed=5,
                label="work-run", extra_specs=(),
                balances=None) -> ExecutionConfig:
    """A small all-honest work-lane configuration."""
    if balances is None:
        balances = {PublicKey(f"p{i}", 0): Fraction(1)
                    for i in range(processors)}
    specs = [ProcessorSpec(id=key.owner, keys=(key,),
                           strategy=HonestWorkStrategy)
             for key in balances]
    specs.extend(extra_specs)
    return ExecutionConfig(
        delta=delta,
        epsilon=epsilon,
        schedule=SynchronySchedule.fully_synchronous(duration),
        timing={"policy": "uniform_delay", "delay": delay},
        pool=ConstantBalancePool(balances, mode=SIZED),
        permitter=WorkPermitter(rate),
        confirmation=KDeepRule(confirm_k),
        processors=specs,
        seed=seed,
        label=label,
    )


class StandingStaker(HonestStakeStrategy):
    """An honest staker that claims to stand between its events."""

    standing = True


def stake_config(*, duration=300, stakes=None, rate=Fraction(1, 4),
                 lookahead=6, confirm_k=4, delta=2, delay=1, seed=5,
                 label="stake-run") -> ExecutionConfig:
    """A small all-honest stake-lane configuration."""
    if stakes is None:
        stakes = {PublicKey("s0", 0): 2, PublicKey("s1", 0): 1}
    specs = [ProcessorSpec(id=key.owner, keys=(key,),
                           strategy=HonestStakeStrategy)
             for key in stakes]
    return ExecutionConfig(
        delta=delta,
        epsilon=0.1,
        schedule=SynchronySchedule.fully_synchronous(duration),
        timing={"policy": "uniform_delay", "delay": delay},
        pool=StakePool(stakes),
        permitter=StakePermitter(rate, lookahead=lookahead),
        confirmation=KDeepRule(confirm_k),
        processors=specs,
        seed=seed,
        label=label,
    )
