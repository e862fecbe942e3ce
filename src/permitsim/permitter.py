"""Permitter oracles: the only source of block-production permission.

Processors cannot broadcast a block they were not granted.  Once per
slot the engine forwards each processor's requests to the permitter and
hands the responses back at the start of the next slot.

Two request shapes exist, matching the two budget regimes:

* ``single`` budget (untimed): at most one request per key per slot, and
  the request may carry a candidate block A.  The work-style oracle
  grants exactly {A} or nothing.
* ``multi`` budget (timed): any number of requests per key per slot, but
  A must be empty.  Requests name a target slot t' inside a bounded
  lookahead window; the stake-style oracle answers with an intensional
  grant — "every block signed by this key with timestamp t'" — which is
  an infinite set represented as a predicate.

Both oracles are probabilistic functions of the request, the queried
key's balance, and determined quantities only.  In particular the
work-style oracle never reads the realized pool total when the pool is
unsized (hidden): it normalizes by a *determined* reference scale,
defaulting to the pool's declared lower total bound.  Draws are derived
from the execution seed and the request's own labels, so identical
requests in coupled executions receive identical verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import rng
from .blocktree import BlockSetView
from .errors import ConfigError, SettingMismatchError
from .messages import Message, PublicKey
from .resource_pool import SIZED, UNSIZED, ResourcePool, as_fraction

SINGLE = "single"
MULTI = "multi"


@dataclass(frozen=True)
class PermitterSetting:
    """The axes a permitter commits to."""

    timed: bool
    budget: str  # SINGLE or MULTI

    def __post_init__(self):
        if self.budget not in (SINGLE, MULTI):
            raise ConfigError(f"unknown request budget {self.budget!r}")


@dataclass
class PermitRequest:
    """One request: the key, the message set M it presents, and extras.

    ``view`` realizes M (a subset of the requester's state plus its
    not-yet-broadcast grants); ``m_digest`` is its order-independent
    digest, recorded in transcripts.  ``candidate`` is the candidate
    block A (single-budget only); ``target_slot`` is t' (timed only).
    """

    key: PublicKey
    view: BlockSetView
    candidate: Message | None = None
    target_slot: int | None = None
    m_digest: int = field(init=False, default=0)

    def __post_init__(self):
        self.m_digest = self.view.digest


@dataclass(frozen=True)
class LeaderGrant:
    """Intensional permission: any block signed by ``key`` with
    timestamp ``slot`` (any parent) is permitted."""

    key: PublicKey
    slot: int

    def covers(self, msg: Message) -> bool:
        return (
            msg.is_block
            and msg.signer == self.key
            and msg.timestamp == self.slot
        )


@dataclass
class PermitResponse:
    """The oracle's answer to one request, delivered next slot."""

    key: PublicKey
    granted: tuple[Message, ...] = ()
    leader: LeaderGrant | None = None
    target_slot: int | None = None

    @property
    def empty(self) -> bool:
        return not self.granted and self.leader is None


def _below(draw: int, threshold: Fraction) -> bool:
    """draw / 2**64 < threshold, in integer arithmetic."""
    return draw * threshold.denominator < threshold.numerator * 2**64


class WorkPermitter:
    """Per-request lottery proportional to the key's balance.

    Grants {A} with probability min(1, rate * balance / scale) where the
    scale is the pool total in sized mode and a determined constant in
    unsized mode.  A must be a block extending a tip of the longest
    chain in the presented message set.
    """

    setting = PermitterSetting(timed=False, budget=SINGLE)

    def __init__(self, rate, *, reference_scale=None):
        self.rate = as_fraction(rate)
        if self.rate < 0:
            raise ConfigError("grant rate cannot be negative")
        self.reference_scale = (
            None if reference_scale is None else as_fraction(reference_scale)
        )

    def _scale(self, pool: ResourcePool, slot: int, view) -> Fraction:
        if pool.mode == SIZED:
            return pool.total(slot, view)
        if self.reference_scale is not None:
            return self.reference_scale
        return pool.bounds[0]

    def respond(self, request: PermitRequest, pool: ResourcePool, slot: int,
                seed: int) -> PermitResponse:
        key = request.key
        denied = PermitResponse(key=key)
        balance = pool.balance_of(key, slot, request.view)
        if balance == 0:
            return denied  # hard rule: zero balance is never granted
        cand = request.candidate
        if cand is None or not cand.is_block or cand.signer != key:
            return denied
        if cand.timestamp is not None:
            return denied  # untimed blocks carry no timestamp
        parent = cand.parent
        view = request.view
        if parent is None or parent not in view.active:
            return denied
        if view.index.height(parent) + 1 != view.longest_length:
            return denied  # parent is not a tip of a longest chain in M
        threshold = min(Fraction(1), self.rate * balance / self._scale(pool, slot, view))
        draw = rng.substream_u64(seed, "work", key.owner, key.index, slot,
                                 request.m_digest, cand.id)
        if _below(draw, threshold):
            return PermitResponse(key=key, granted=(cand,))
        return denied


class StakePermitter:
    """Per-(key, slot) leader lottery proportional to recorded stake.

    The draw is a fixed pseudorandom function of (seed, key, t'), so
    repeated queries agree and varying the presented message set cannot
    re-roll the lottery; the message set enters only through the stake
    read.  Requires a sized pool — the threshold normalizes by the
    (determined) total.
    """

    setting = PermitterSetting(timed=True, budget=MULTI)

    def __init__(self, rate, *, lookahead: int = 8):
        self.rate = as_fraction(rate)
        if not 0 <= self.rate <= 1:
            raise ConfigError("per-slot leader rate must lie in [0, 1]")
        self.lookahead = int(lookahead)
        if self.lookahead < 0:
            raise ConfigError("lookahead cannot be negative")

    def check_pool(self, pool: ResourcePool) -> None:
        if pool.mode != SIZED:
            raise SettingMismatchError(
                "stake permitter needs a sized pool (total enters the threshold)"
            )

    def respond(self, request: PermitRequest, pool: ResourcePool, slot: int,
                seed: int) -> PermitResponse:
        key = request.key
        target = request.target_slot
        denied = PermitResponse(key=key, target_slot=target)
        if request.candidate is not None:
            return denied  # multi-budget requests carry no candidate
        if target is None or target < 1 or target > slot + self.lookahead:
            return denied
        balance = pool.balance_of(key, target, request.view)
        if balance == 0:
            return denied
        total = pool.total(target, request.view)
        threshold = min(Fraction(1), self.rate * balance / total)
        draw = rng.substream_u64(seed, "stake", key.owner, key.index, target)
        if _below(draw, threshold):
            return PermitResponse(
                key=key, leader=LeaderGrant(key=key, slot=target), target_slot=target
            )
        return denied


def enforce_request_budget(requests: list[PermitRequest],
                           setting: PermitterSetting) -> list[str]:
    """Check one processor's per-slot request list against the budget.

    Returns a list of violation descriptions (empty when compliant).
    """
    problems = []
    if setting.budget == SINGLE:
        seen: set[PublicKey] = set()
        for req in requests:
            if req.key in seen:
                problems.append(f"key {req.key.label()} issued two requests in one slot")
            seen.add(req.key)
            if req.target_slot is not None:
                problems.append("single-budget requests carry no target slot")
    else:
        for req in requests:
            if req.candidate is not None:
                problems.append("multi-budget requests must leave the candidate empty")
            if req.target_slot is None:
                problems.append("timed requests must name a target slot")
    return problems
