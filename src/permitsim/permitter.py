"""Permitter oracles: the only source of block-production permission.

Processors cannot broadcast a block they were not granted.  Once per
slot the engine forwards each processor's requests to the permitter and
hands the responses back at the start of the next slot.

Each permitter states its setting as class facts the rest of the code
reads: ``timed`` and ``lookahead``.

* Untimed (``WorkPermitter``): at most one request per key per slot, and
  the request may carry a candidate block A.  The oracle grants exactly
  {A} or nothing.  Requests name no target, so ``lookahead`` is 0.
* Timed (``StakePermitter``): any number of requests per key per slot,
  but A must be empty.  Requests name a target slot t' with
  1 <= t' <= slot + ``lookahead``; the oracle answers with an intensional
  grant — "every block signed by this key with timestamp t'" — which is
  an infinite set represented as a predicate.

``respond`` returns a ``PermitResponse`` for a grant and ``None`` for a
denial; the engine records and hands back grants only.

Both oracles are probabilistic functions of the request, the queried
key's balance, and determined quantities only.  In particular the
work-style oracle never reads the realized pool total when the pool is
unsized (hidden): it normalizes by a *determined* reference scale,
defaulting to the pool's declared lower total bound.  Draws are derived
from the execution seed and the request's own labels, so identical
requests in coupled executions receive identical verdicts.

A 64-bit draw is granted when it lies below the key's integer cutoff,
``ceil(threshold * 2**64)``.  A draw is ``rng.substream_u64(seed, tag,
owner, index, *rest)`` with the tag ``"work"`` or ``"stake"``.  Each
lottery keeps one entry per (pool, seed, key): the key's cutoff and its
``rng.Prefix``, the SHA-256 state after ``(seed, tag, owner, index)``, so
a request hashes only its own labels.  While a pool is constant its
balances and total never change, so the cutoff is computed once; for any
other pool the entry holds ``None`` and the threshold is rebuilt in exact
fractions for every slot drawn.

``WorkPermitter.draw`` checks a request and encodes its ``(m_digest,
candidate id)`` tail once, then draws it at any slot; ``respond`` draws
at one slot.  The work permitter keeps each key's last set-up (request,
view size, draw) and hands the draw back when the same request comes
again over an unchanged view, as after ``respond`` at a standing miner's
event and in the simulation attacker's repeated forwards.  The draws
share the encoding of the slot last drawn in, and no stored draw refers
back to the permitter.  Neither memo changes a draw.  Over two trials
of 30 honest miners for 1000 slots, 50.0% of the draws asked for reuse
a set-up and 96.7% of the slots drawn reuse their encoding; over two
trials of the hidden-total simulation attack, 58.3% (5,299 set-ups for
12,710 asks) and 83.2%.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import rng
from .blocktree import BlockSetView
from .errors import ConfigError, SettingMismatchError
from .messages import Message, PublicKey
from .resource_pool import SIZED, ResourcePool, as_fraction


class PermitRequest:
    """One request: the key, the message set M it presents, and extras.

    ``view`` realizes M (a subset of the requester's state plus its
    not-yet-broadcast grants); ``m_digest`` is its order-independent
    digest at construction, recorded in transcripts.  ``candidate`` is the
    candidate block A (untimed only); ``target_slot`` is t' (timed only).
    """

    __slots__ = ("key", "view", "candidate", "target_slot", "m_digest")

    def __init__(self, key: PublicKey, view: BlockSetView,
                 candidate: Message | None = None, target_slot: int | None = None):
        self.key, self.view, self.m_digest = key, view, view.digest
        self.candidate, self.target_slot = candidate, target_slot


class LeaderGrant(NamedTuple):
    """Intensional permission: any block signed by ``key`` with
    timestamp ``slot`` (any parent) is permitted.  A tuple, so it equals
    ``(key, slot)``."""

    key: PublicKey
    slot: int

    def covers(self, msg: Message) -> bool:
        return (
            msg.is_block
            and msg.signer == self.key
            and msg.timestamp == self.slot
        )


class PermitResponse(NamedTuple):
    """A grant answering one request, delivered next slot."""

    key: PublicKey
    granted: tuple[Message, ...] = ()
    leader: LeaderGrant | None = None


def _cutoff(threshold: Fraction) -> int:
    """The c with draw < c exactly when draw / 2**64 < threshold:
    ceil(threshold * 2**64), in integer arithmetic."""
    return -(-threshold.numerator * 2**64 // threshold.denominator)


def _fresh_cutoff(rate: Fraction, scale: Fraction | None, pool: ResourcePool,
                  key: PublicKey, slot: int, view) -> int:
    """min(1, rate * balance / scale)'s cutoff; ``None`` scales by the total."""
    balance = pool.balance_of(key, slot, view)
    if balance == 0:
        return 0  # hard rule: zero balance is never granted
    if scale is None:
        scale = pool.total(slot, view)
    return _cutoff(min(Fraction(1), rate * balance / scale))


class _Lottery:
    """A balance-weighted lottery's integer grant cutoffs and draws.

    The threshold is min(1, rate * balance / scale), where ``_scale`` is
    the pool's realized total unless a subclass names a determined scale.
    Each (pool, seed, key) has one entry: the key's cutoff, or ``None``
    when the pool is not constant and the cutoff is read at every slot,
    and its ``rng.Prefix`` of the subclass's ``tag``.  A zero balance
    gives cutoff 0, which denies every draw.
    """

    tag = ""
    timed = False
    lookahead = 0

    def __init__(self, rate):
        self.rate = as_fraction(rate)
        # (pool, seed, key) -> (cutoff or None, prefix)
        self._entries: dict[tuple, tuple[int | None, rng.Prefix]] = {}

    def check_pool(self, pool: ResourcePool) -> None:
        """Raise ``SettingMismatchError`` when the pool cannot serve."""

    def describe(self) -> dict:
        """The permitter's entry in a transcript header."""
        return {"family": type(self).__name__, "rate": str(self.rate)}

    def _scale(self, pool: ResourcePool) -> Fraction | None:
        """A determined scale, or ``None`` for the pool's realized total."""
        return None

    def _entry(self, pool: ResourcePool, seed: int,
               key: PublicKey) -> tuple[int | None, rng.Prefix]:
        entry = self._entries.get((pool, seed, key))
        if entry is None:
            # a constant pool reads no slot and no message state
            cutoff = (_fresh_cutoff(self.rate, self._scale(pool), pool, key, 0,
                                    None) if pool.is_constant else None)
            entry = self._entries[pool, seed, key] = (
                cutoff, rng.Prefix(seed, self.tag, key.owner, key.index))
        return entry


class WorkPermitter(_Lottery):
    """Per-request lottery proportional to the key's balance.

    Grants {A} with probability min(1, rate * balance / scale) where the
    scale is the pool total in sized mode and a determined constant in
    unsized mode.  A must be a block extending a tip of the longest
    chain in the presented message set.
    """

    tag = "work"

    def __init__(self, rate, *, reference_scale=None):
        super().__init__(rate)
        if self.rate < 0:
            raise ConfigError("grant rate cannot be negative")
        self.reference_scale = (
            None if reference_scale is None else as_fraction(reference_scale)
        )
        if self.reference_scale is not None and self.reference_scale <= 0:
            raise ConfigError("reference scale must be positive")
        # key -> (request, view size, pool, seed, draw) of its last set-up
        self._last: dict[PublicKey, tuple] = {}
        self._slot = [None, b""]  # the last slot drawn for, its encoding

    def describe(self) -> dict:
        desc = super().describe()
        if self.reference_scale is not None:
            desc["reference_scale"] = str(self.reference_scale)
        return desc

    def _scale(self, pool: ResourcePool) -> Fraction | None:
        if pool.mode == SIZED:
            return None
        if self.reference_scale is not None:
            return self.reference_scale
        return pool.bounds[0]

    def respond(self, request: PermitRequest, pool: ResourcePool, slot: int,
                seed: int) -> PermitResponse | None:
        draw = self.draw(request, pool, seed)
        return draw and draw(slot)

    def draw(self, request: PermitRequest, pool: ResourcePool, seed: int):
        """``respond`` as a function of the slot while the request's view
        holds, or ``None`` when no slot can grant it: a slot costs one
        state copy, update, digest and compare.  The same request over an
        unchanged view gets the same function back."""
        key, view, cand = request.key, request.view, request.candidate
        size = view.size
        last = self._last.get(key)
        if (last is not None and last[0] is request and last[1] == size
                and last[2] is pool and last[3] == seed):
            return last[4]
        fixed, prefix = self._entry(pool, seed, key)
        parent = cand.parent if cand is not None else None
        if (fixed == 0 or parent is None or not cand.is_block
                or cand.signer != key
                or cand.timestamp is not None  # untimed blocks carry none
                or not view.is_active(parent)
                # the parent must be a tip of a longest chain in M
                or view.index.height(parent) + 1 != view.longest_length):
            draw_at = None
        else:
            tail = rng.encode(request.m_digest, cand.id)
            # the draw holds values, never the permitter it is stored in
            rate, scale, last_slot = self.rate, self._scale(pool), self._slot

            def draw_at(slot: int) -> PermitResponse | None:
                if slot != last_slot[0]:
                    last_slot[0], last_slot[1] = slot, rng.encode(slot)
                cutoff = (_fresh_cutoff(rate, scale, pool, key, slot, view)
                          if fixed is None else fixed)
                if prefix.u64_of(last_slot[1] + tail) < cutoff:
                    return PermitResponse(key=key, granted=(cand,))
                return None
        self._last[key] = (request, size, pool, seed, draw_at)
        return draw_at


class StakePermitter(_Lottery):
    """Per-(key, slot) leader lottery proportional to recorded stake.

    The draw is a fixed pseudorandom function of (seed, key, t'), so
    repeated queries agree and varying the presented message set cannot
    re-roll the lottery; the message set enters only through the stake
    read.  Requires a sized pool — the threshold normalizes by the
    (determined) total.
    """

    tag = "stake"
    timed = True

    def __init__(self, rate, *, lookahead: int = 8):
        super().__init__(rate)
        if not 0 <= self.rate <= 1:
            raise ConfigError("per-slot leader rate must lie in [0, 1]")
        self.lookahead = int(lookahead)
        if self.lookahead < 1:  # slot t' is asked at t' - 1 or earlier
            raise ConfigError("lookahead must be at least one slot")
        self._target = [None, b""]  # the last target drawn for, its encoding

    def check_pool(self, pool: ResourcePool) -> None:
        if pool.mode != SIZED:
            raise SettingMismatchError(
                "stake permitter needs a sized pool (total enters the threshold)"
            )

    def describe(self) -> dict:
        return {**super().describe(), "lookahead": self.lookahead}

    def respond(self, request: PermitRequest, pool: ResourcePool, slot: int,
                seed: int) -> PermitResponse | None:
        target = request.target_slot
        if (request.candidate is not None  # timed requests carry no candidate
                or target is None or target < 1
                or target > slot + self.lookahead):
            return None
        key = request.key
        cutoff, prefix = self._entry(pool, seed, key)
        if cutoff is None:
            cutoff = _fresh_cutoff(self.rate, None, pool, key, target,
                                   request.view)
        if not cutoff:
            return None
        # every key asks for a target in the same slot, so they share its
        # encoding
        last = self._target
        if target != last[0]:
            last[0], last[1] = target, rng.encode(target)
        if prefix.u64_of(last[1]) < cutoff:
            return PermitResponse(key=key, leader=LeaderGrant(key=key, slot=target))
        return None


def enforce_request_budget(requests: list[PermitRequest],
                           timed: bool) -> list[str]:
    """Check one processor's per-slot request list against the budget of
    the timed or the untimed setting.

    Returns a list of violation descriptions (empty when compliant).
    """
    problems = []
    if not timed:
        seen: set[PublicKey] = set()
        for req in requests:
            if req.key in seen:
                problems.append(f"key {req.key.label()} issued two requests in one slot")
            seen.add(req.key)
            if req.target_slot is not None:
                problems.append("untimed requests carry no target slot")
    else:
        for req in requests:
            if req.candidate is not None:
                problems.append("timed requests must leave the candidate empty")
            if req.target_slot is None:
                problems.append("timed requests must name a target slot")
    return problems
