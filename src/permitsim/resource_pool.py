"""Resource pools: who holds how much of the scarce resource, and when.

A pool maps (key, timeslot, message state) to a nonnegative balance.
Pools must satisfy three structural conditions at every (t, M): only
roster keys may hold a nonzero balance, only finitely many keys do, and
the balances sum to something positive.

Pools come in two modes.  A *sized* pool is part of the determined
instance: the permitter (and analysis) may use any feature of it,
including the total.  An *unsized* pool is hidden: protocols know only
the declared bounds [alpha0, alpha1] on the total, and the permitter may
consult nothing beyond the queried key's own balance.  The one unsized
pool, ``ConstantBalancePool``, is a constant hidden total: its balances
move with neither the slot nor the message state, so its header states
all of it.

Balances are exact fractions so that strict domination comparisons never
hinge on float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError
from .messages import PublicKey

SIZED = "sized"
UNSIZED = "unsized"

# (tip, cutoff) pairs whose seasoned-signer lists a StakePool keeps
_SEASONED_MEMO = 256


def as_fraction(value) -> Fraction:
    """Exact fraction from int, float literal, 'p/q' string, or Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise ConfigError(f"cannot read {value!r} as a balance")


def parse_key(label) -> PublicKey:
    """A PublicKey as it is; a 'group' or 'group/index' label -> PublicKey."""
    if isinstance(label, PublicKey):
        return label
    label = str(label)
    if "/" in label:
        owner, idx = label.rsplit("/", 1)
        return PublicKey(owner, int(idx))
    return PublicKey(label, 0)


def _positive_balances(balances: dict) -> dict[PublicKey, Fraction]:
    """The keys holding a positive balance; refuses a negative balance
    and a zero total."""
    out: dict[PublicKey, Fraction] = {}
    for label, value in balances.items():
        key = parse_key(label)
        frac = as_fraction(value)
        if frac < 0:
            raise ConfigError(f"negative balance for {key.label()}")
        if frac > 0:
            out[key] = frac
    if not out:
        raise ConfigError("pool must hold a positive total balance")
    return out


class ResourcePool:
    """Base class; subclasses implement balance_of and total."""

    mode: str = SIZED
    bounds: tuple[Fraction, Fraction] | None = None

    def __init__(self, balances: dict):
        self._balances = _positive_balances(balances)

    # -- interface used by the permitter and analysis ----------------------

    def balance_of(self, key: PublicKey, slot: int, view=None) -> Fraction:
        raise NotImplementedError

    def total(self, slot: int, view=None) -> Fraction:
        raise NotImplementedError

    @property
    def is_constant(self) -> bool:
        """True when balances ignore both the slot and the message state."""
        return False

    def declared_keys(self) -> list[PublicKey]:
        return list(self._balances)

    def describe(self) -> dict:
        out = {
            "family": type(self).__name__,
            "mode": self.mode,
            "balances": {k.label(): str(v) for k, v in sorted(self._balances.items())},
        }
        if self.bounds is not None:
            out["bounds"] = [str(b) for b in self.bounds]
        return out


class ConstantBalancePool(ResourcePool):
    """Fixed balances: a constant hash-rate or stake distribution.

    Unsized, its realized total is a constant that protocols and the
    permitter never read; they know only the declared bounds, which must
    hold it.
    """

    def __init__(self, balances: dict, *, mode: str = UNSIZED,
                 bounds: tuple | None = None):
        super().__init__(balances)
        if mode not in (SIZED, UNSIZED):
            raise ConfigError(f"unknown pool mode {mode!r}")
        self.mode = mode
        self.bounds = None
        if bounds is not None:
            a0, a1 = as_fraction(bounds[0]), as_fraction(bounds[1])
            if a0 <= 0:
                raise ConfigError("lower total bound must be positive")
            if a1 < a0:
                raise ConfigError("upper total bound below lower bound")
            self.bounds = (a0, a1)
        if mode == UNSIZED and self.bounds is None:
            raise ConfigError("unsized pools must declare total bounds")
        self._total = sum(self._balances.values(), Fraction(0))
        if mode == UNSIZED and not a0 <= self._total <= a1:
            raise ConfigError(f"total {self._total} lies outside the declared "
                              f"bounds [{a0}, {a1}]")

    def balance_of(self, key: PublicKey, slot: int, view=None) -> Fraction:
        return self._balances.get(key, Fraction(0))

    def total(self, slot: int, view=None) -> Fraction:
        return self._total

    @property
    def is_constant(self) -> bool:
        return True


class StakePool(ResourcePool):
    """Stake recorded on the chain: genesis allocation plus block rewards.

    The stake of a key under message state M is its genesis allocation
    plus ``reward`` for every block it mined on the longest chain of M
    whose timestamp is at least ``min_recording_age`` slots old — newly
    recorded stake must season before it counts toward block production.
    Sized by construction: the genesis allocation is public.
    """

    mode = SIZED

    def __init__(self, genesis_allocation: dict, *, reward=0,
                 min_recording_age: int = 0):
        super().__init__(genesis_allocation)
        self.reward = as_fraction(reward)
        self.min_recording_age = int(min_recording_age)
        if self.reward < 0:
            raise ConfigError("block reward cannot be negative")
        # (tip, cutoff) -> the seasoned signers, oldest entry first
        self._seasoned: dict[tuple[str, int], list[PublicKey]] = {}

    def _seasoned_signers(self, slot: int, view) -> list[PublicKey]:
        """The signer of each block on the longest chain of ``view`` that
        is at least ``min_recording_age`` slots old at ``slot``; the chain
        is read through the block index, which also holds the part a fork
        view shares with the view it forked from.  Walked once per (tip,
        cutoff): a block id fixes its whole chain, so the list holds in
        every view and execution with that tip."""
        tip, cutoff = view.longest_tip, slot - self.min_recording_age
        signers = self._seasoned.get((tip, cutoff))
        if signers is None:
            signers = [msg.signer for msg in view.index.chain(tip)
                       if msg.signer is not None
                       and (msg.timestamp or 0) <= cutoff]
            if len(self._seasoned) >= _SEASONED_MEMO:
                del self._seasoned[next(iter(self._seasoned))]
            self._seasoned[tip, cutoff] = signers
        return signers

    def describe(self) -> dict:
        out = super().describe()
        if self.reward or self.min_recording_age:  # else the base's, as before
            out.update(reward=str(self.reward),
                       min_recording_age=self.min_recording_age)
        return out

    def balance_of(self, key: PublicKey, slot: int, view=None) -> Fraction:
        base = self._balances.get(key, Fraction(0))
        if self.reward == 0 or view is None:
            return base
        earned = self._seasoned_signers(slot, view).count(key)
        return base + self.reward * earned

    def total(self, slot: int, view=None) -> Fraction:
        base = sum(self._balances.values(), Fraction(0))
        if self.reward == 0 or view is None:
            return base
        return base + self.reward * len(self._seasoned_signers(slot, view))

    @property
    def is_constant(self) -> bool:
        return self.reward == 0


class ScriptedPool(ResourcePool):
    """Balances that follow an explicit per-slot script.

    ``segments`` is a list of (first_slot, balances) entries sorted by
    first_slot; a segment applies from its first slot until the next
    segment starts.  Useful for stress tests where adversary power moves.
    Every segment obeys a pool's rules, and the header lists each one.
    """

    mode = SIZED

    def __init__(self, segments: list[tuple[int, dict]]):
        if not segments:
            raise ConfigError("scripted pool needs at least one segment")
        starts = [s for s, _ in segments]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ConfigError("scripted segments must have increasing start slots")
        self._segments = [(int(start), _positive_balances(bal))
                          for start, bal in segments]
        # the declared keys: every key with a positive balance in a segment
        super().__init__({k: v for _, bal in self._segments for k, v in bal.items()})

    def _segment(self, slot: int) -> dict:
        chosen = self._segments[0][1]
        for start, bal in self._segments:
            if slot >= start:
                chosen = bal
            else:
                break
        return chosen

    def balance_of(self, key: PublicKey, slot: int, view=None) -> Fraction:
        return self._segment(slot).get(key, Fraction(0))

    def total(self, slot: int, view=None) -> Fraction:
        return sum(self._segment(slot).values(), Fraction(0))

    def describe(self) -> dict:
        return {
            "family": type(self).__name__,
            "mode": self.mode,
            "segments": [
                [start, {k.label(): str(v) for k, v in sorted(bal.items())}]
                for start, bal in self._segments],
        }


# -- adversary bound checks ---------------------------------------------------


def _contexts_or_default(pool: ResourcePool, contexts):
    if contexts is not None:
        return contexts
    if pool.is_constant:
        return [(1, None)]
    raise ConfigError("non-constant pool checks need explicit (slot, view) contexts")


def is_q_bounded(pool: ResourcePool, adversary_keys, q, contexts=None) -> bool:
    """True when the adversary's share never exceeds q, exactly.

    Checked over the supplied (slot, view) contexts; constant pools need
    no contexts since their balances ignore both coordinates.
    """
    q = as_fraction(q)
    adv = {parse_key(k) for k in adversary_keys}
    for slot, view in _contexts_or_default(pool, contexts):
        total = pool.total(slot, view)
        held = sum((pool.balance_of(k, slot, view) for k in adv), Fraction(0))
        if held > q * total:
            return False
    return True


def dominates(pool: ResourcePool, keys_a, keys_b, theta, contexts=None) -> bool:
    """True when keys_a's balance strictly exceeds theta times keys_b's
    at every supplied context (exact arithmetic, strict inequality)."""
    theta = as_fraction(theta)
    ka = {parse_key(k) for k in keys_a}
    kb = {parse_key(k) for k in keys_b}
    for slot, view in _contexts_or_default(pool, contexts):
        held_a = sum((pool.balance_of(k, slot, view) for k in ka), Fraction(0))
        held_b = sum((pool.balance_of(k, slot, view) for k in kb), Fraction(0))
        if not held_a > theta * held_b:
            return False
    return True
