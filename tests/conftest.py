"""Shared builders for the test suite."""

from fractions import Fraction

import pytest

from permitsim.blocktree import BlockIndex, BlockSetView
from permitsim.engine import ExecutionConfig, ProcessorSpec
from permitsim.messages import PublicKey, genesis_block, make_block
from permitsim.network import SynchronySchedule
from permitsim.permitter import StakePermitter, WorkPermitter
from permitsim.protocols import (HonestStakeStrategy, HonestWorkStrategy,
                                 KDeepRule)
from permitsim.resource_pool import SIZED, ConstantBalancePool, StakePool


def block_ids(index: BlockIndex) -> list[str]:
    """Every block id the index holds, in the order it took them."""
    return list(index._parent)


def leaves(block_ids, index: BlockIndex) -> set[str]:
    """Blocks in the set with no child in the set."""
    ids = set(block_ids)
    with_child = {index.parent(b) for b in ids if index.parent(b) in ids}
    return ids - with_child


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
