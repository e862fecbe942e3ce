"""Reference protocols and confirmation rules.

A protocol is a deterministic state machine driven once per slot through
three hooks mirroring the slot order: ``on_receive`` (messages and
permitter responses arrive), ``plan_broadcasts``, ``plan_requests``.
All randomness lives in the permitter and the timing rule, never in a
protocol, which is what makes paired executions comparable.

Two honest families ship here:

* the work-style longest-chain protocol (untimed): each slot every key
  submits one candidate block extending the longest chain tip; granted
  candidates are broadcast immediately;
* the stake-style longest-chain protocol (timed): each key asks for
  leadership of upcoming slots inside the permitter's lookahead window
  (``StepContext.lookahead``); a key that holds leadership for the
  current slot broadcasts one block, timestamped with the slot,
  extending the longest chain tip.

Confirmation rules turn a message set into a confirmed chain.  A rule is
its tracker: the engine runs it over each processor's growing view, and
``confirm`` replays any message set through a fresh view, so each rule
is written once.  Two ship:

* depth confirmation: the longest chain minus its last ``k`` blocks
  (genesis is always confirmed);
* density certificates: a chain prefix of length ``i`` is confirmed when
  enough distinct timestamped blocks hang off its leaf inside the i-th
  window of a fixed slot grid.  The witness count threshold and window
  length are chosen so that, for a bounded adversary, forging a witness
  or starving an honest one has probability below the target across the
  whole grid (two-sided tail bound, union over windows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .blocktree import BlockIndex, BlockSetView
from .errors import ConfigError
from .messages import Message, PublicKey, make_block
from .permitter import PermitRequest, PermitResponse
from .resource_pool import as_fraction

# ---------------------------------------------------------------------------
# protocol step interface
# ---------------------------------------------------------------------------


@dataclass
class StepContext:
    """Everything a protocol may lawfully see at one slot.

    The engine keeps one context per processor and rewrites its ``slot``,
    ``responses`` and ``delivered`` at every step, so a context is valid
    only for the hooks of its own slot: a strategy copies what it wants
    to keep, never the context itself.
    """

    slot: int
    processor_id: str
    keys: tuple[PublicKey, ...]
    view: BlockSetView
    responses: tuple[PermitResponse, ...]
    delivered: tuple[Message, ...]
    duration: int
    delta: int
    epsilon: float
    timed: bool
    lookahead: int  # the permitter's window: targets up to slot + lookahead


class Strategy:
    """Base protocol: receive, broadcast, request — in that order.  On a
    slot with no delivery or response, a ``standing`` one (read after each
    slot it is stepped) changes nothing and asks what it asked last.  The
    base stands; a subclass overriding a hook restates it."""

    name = "abstract"
    standing = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "standing" not in vars(cls) and vars(cls).keys() & {
                "on_receive", "plan_broadcasts", "plan_requests"}:
            cls.standing = False

    def on_receive(self, ctx: StepContext) -> None:
        pass

    def plan_broadcasts(self, ctx: StepContext) -> list[Message]:
        return []

    def plan_requests(self, ctx: StepContext) -> list[PermitRequest]:
        return []


class Candidates:
    """One candidate block per key, minted again only when its parent
    changes.  Messages are immutable and identified by content, so the
    reused candidate has the id, and gets the draw, a new one would."""

    def __init__(self):
        self._by_key: dict[PublicKey, Message] = {}

    def extending(self, key: PublicKey, parent: str) -> Message:
        cand = self._by_key.get(key)
        if cand is None or cand.parent != parent:
            cand = self._by_key[key] = make_block(key, parent=parent)
        return cand


class LeaderSlots:
    """A staker's leadership requests and the slots its keys won.

    Each target slot in ``(slot, min(slot + ctx.lookahead, duration)]`` is
    asked once per key, so the targets asked so far run from the first
    slot up to one high-water mark.  Of several keys winning one slot, the
    smallest produces.
    """

    def __init__(self):
        self._asked = 0  # the last target asked for
        self._won: dict[int, PublicKey] = {}  # slot -> smallest winning key

    def note(self, responses) -> None:
        for resp in responses:
            lead = resp.leader
            if lead is not None:
                won = self._won.get(lead.slot)
                if won is None or lead.key < won:
                    self._won[lead.slot] = lead.key

    def take(self, slot: int) -> PublicKey | None:
        """The key that produces at ``slot``, if any; asked once."""
        return self._won.pop(slot, None)

    def requests(self, ctx: StepContext, view: BlockSetView) -> list[PermitRequest]:
        """The targets not asked yet, for every key, presenting ``view``."""
        slot, last = ctx.slot, ctx.slot + ctx.lookahead
        if self._asked == last - 1 and slot < last <= ctx.duration:
            self._asked = last  # the usual step: the window moved by one
            return [PermitRequest(key, view, target_slot=last) for key in ctx.keys]
        first = max(self._asked, slot) + 1
        last = min(last, ctx.duration)
        if last < first:
            return []
        self._asked = last
        return [PermitRequest(key=key, view=view, target_slot=target)
                for key in ctx.keys for target in range(first, last + 1)]


class ObserverStrategy(Strategy):
    """Receives and confirms, broadcasts and requests nothing."""

    name = "observer"


class HonestWorkStrategy(Strategy):
    """Longest-chain block production under the work permitter."""

    name = "work_honest"
    standing = True  # between events its view, tip and candidates hold

    def __init__(self):
        self._pending: list[Message] = []
        self._candidates = Candidates()

    def on_receive(self, ctx: StepContext) -> None:
        for resp in ctx.responses:
            for msg in resp.granted:
                if msg.id not in ctx.view:
                    self._pending.append(msg)

    def plan_broadcasts(self, ctx: StepContext) -> list[Message]:
        out = [m for m in self._pending if m.id not in ctx.view]
        self._pending = []
        return out

    def plan_requests(self, ctx: StepContext) -> list[PermitRequest]:
        tip = ctx.view.longest_tip
        return [PermitRequest(key=key, view=ctx.view,
                              candidate=self._candidates.extending(key, tip))
                for key in ctx.keys]


class HonestStakeStrategy(Strategy):
    """Longest-chain block production under the stake permitter.

    Leadership for slot t' must be requested at t'-1 or earlier, so the
    window queried each slot starts one slot ahead.  A processor never
    broadcasts two blocks with the same timestamp: if several of its keys
    hold leadership for one slot, the smallest key label produces.
    """

    name = "stake_honest"

    def __init__(self):
        self._slots = LeaderSlots()

    def on_receive(self, ctx: StepContext) -> None:
        self._slots.note(ctx.responses)

    def plan_broadcasts(self, ctx: StepContext) -> list[Message]:
        key = self._slots.take(ctx.slot)
        if key is None:
            return []
        return [make_block(key, parent=ctx.view.longest_tip, timestamp=ctx.slot)]

    def plan_requests(self, ctx: StepContext) -> list[PermitRequest]:
        return self._slots.requests(ctx, ctx.view)


# ---------------------------------------------------------------------------
# confirmation rules
# ---------------------------------------------------------------------------


class ConfirmationRule:
    """Maps message sets to confirmed chains.

    A rule is defined once, by its tracker: the engine feeds it every
    block a processor's view activates, and ``confirm`` replays an
    arbitrary message set through a fresh one.
    """

    name = "abstract"

    def make_tracker(self, view: BlockSetView):
        """Incremental per-view tracker; its ``on_block`` gets each block
        the view activates and is true when ``current()`` may change."""
        raise NotImplementedError

    def track(self, msg_ids, index: BlockIndex):
        """A tracker over a fresh view holding the set's blocks, fed every
        block the view activates; ``tracker.view`` is that view."""
        tracker = self.make_tracker(BlockSetView(index))
        view = tracker.view
        for mid in msg_ids:
            if mid in index:
                for bid in view.add(index.block(mid)):
                    tracker.on_block(bid)
        return tracker

    def confirm(self, msg_ids, index: BlockIndex) -> tuple[str, ...]:
        """Confirmed chain (genesis first) for an arbitrary message set; a
        set without genesis confirms nothing."""
        msg_ids = set(msg_ids)
        if index.genesis_id not in msg_ids:
            return ()
        tip, _ = self.track(msg_ids, index).current()
        return () if tip is None else index.ancestry(tip)

    def describe(self) -> dict:
        return {"family": self.name}


class KDeepRule(ConfirmationRule):
    """Longest chain truncated by ``k`` blocks; genesis always stays."""

    name = "k_deep"

    def __init__(self, k: int):
        if k < 0:
            raise ConfigError("confirmation depth cannot be negative")
        self.k = int(k)

    def make_tracker(self, view: BlockSetView):
        return _KDeepTracker(self.k, view)

    def describe(self) -> dict:
        return {"family": self.name, "k": self.k}


class _KDeepTracker:
    def __init__(self, k: int, view: BlockSetView):
        self.k = k
        self.view = view
        self._tip: str | None = None  # the tip the cached answer is for
        self._current: tuple[str | None, int] = (None, 0)

    def on_block(self, block_id: str) -> bool:
        return True  # the view's longest tip, which it tracks, may move

    def current(self) -> tuple[str | None, int]:
        tip = self.view.longest_tip
        if tip != self._tip:
            confirmed_len = max(1, self.view.index.height(tip) + 1 - self.k)
            self._current = (
                self.view.index.ancestor_at_height(tip, confirmed_len - 1),
                confirmed_len)
            self._tip = tip
        return self._current


class DensityCertificateRule(ConfirmationRule):
    """Chain confirmation by timestamped block density on a slot grid.

    Grid: window i covers [i * spacing, i * spacing + interval_len].
    A chain prefix of length i (genesis counted) whose blocks are all
    timestamped before the window start is confirmed when at least
    ``threshold`` blocks timestamped inside window i descend from its
    leaf.  The empty set confirms nothing.
    """

    name = "density_certificate"

    def __init__(self, spacing: int, interval_len: int, threshold: float,
                 duration: int):
        if spacing <= interval_len:
            raise ConfigError("grid spacing must exceed the window length")
        if interval_len < 1:
            raise ConfigError("window length must be at least one slot")
        if threshold <= 0:
            raise ConfigError("density threshold must be positive")
        self.spacing = int(spacing)
        self.interval_len = int(interval_len)
        self.threshold = float(threshold)
        self.duration = int(duration)
        self._memo_index: BlockIndex | None = None
        self._memo: dict[str, tuple[int, str] | None] = {}
        # each (window, leaf) answer once, shared by every block it admits
        self._keys: dict[tuple[int, str], tuple[int, str]] = {}

    # -- grid helpers -------------------------------------------------------

    def window(self, i: int) -> tuple[int, int] | None:
        start = i * self.spacing
        end = start + self.interval_len
        if i < 1 or end > self.duration:
            return None
        return (start, end)

    def window_of_timestamp(self, ts: int) -> int | None:
        if ts is None or ts < self.spacing:
            return None
        i = ts // self.spacing
        if ts - i * self.spacing > self.interval_len:
            return None
        return i if self.window(i) is not None else None

    def admit(self, block_id: str, index: BlockIndex) -> tuple[int, str] | None:
        """The (window index i, leaf) a block counts toward, or None.

        The block's timestamp must fall inside window i, and the block must
        hang off a chain of length i whose blocks all predate the window;
        that chain's last block is the leaf.

        The answer depends only on the block's timestamp and ancestry, to
        which its id commits, so it is kept per id: every holder of a block
        asks, and the first one computes.  The memo holds the entries of
        the last index asked about, so a rule reused for another run holds
        that run's entries only.
        """
        memo = self._memo_of(index)
        if block_id not in memo:
            memo[block_id] = self._admit(block_id, index)
        return memo[block_id]

    def _memo_of(self, index: BlockIndex) -> dict:
        """``admit``'s per-id answers over ``index``; the memo of another
        index is dropped, with its shared answers."""
        if self._memo_index is not index:
            self._memo_index, self._memo, self._keys = index, {}, {}
        return self._memo

    def _admit(self, block_id: str, index: BlockIndex) -> tuple[int, str] | None:
        i = self.window_of_timestamp(index.timestamp(block_id))
        if i is None or index.height(block_id) < i - 1:
            return None
        leaf = index.ancestor_at_height(block_id, i - 1)
        if index.max_timestamp_up_to_height(leaf, i - 1) >= i * self.spacing:
            return None
        key = (i, leaf)
        return self._keys.setdefault(key, key)

    # -- confirmation -------------------------------------------------------

    def make_tracker(self, view: BlockSetView):
        return _DensityTracker(self, view)

    def describe(self) -> dict:
        return {"family": self.name, "spacing": self.spacing,
                "interval_len": self.interval_len, "threshold": self.threshold,
                "duration": self.duration}


def _witness_rank(chain_len: int, leaf: str) -> tuple[int, str]:
    """Order of witnesses, best first: longer chains, then smaller leaf ids."""
    return (-chain_len, leaf)


class _DensityTracker:
    """Incremental witness counting over one growing view."""

    def __init__(self, rule: DensityCertificateRule, view: BlockSetView):
        self.rule = rule
        self.view = view
        # admit's answers over the view's index, filled by the first holder
        # of each block to ask
        self._memo = rule._memo_of(view.index)
        self.counts: dict[tuple[int, str], int] = {}
        self.best: tuple[int, str] | None = None

    def on_block(self, block_id: str) -> bool:
        """Count an activated block; true when it is a new best witness."""
        memo = self._memo
        key = memo.get(block_id, _UNSEEN)
        if key is _UNSEEN:
            key = self.rule.admit(block_id, self.view.index)
        if key is None:
            return False
        counts = self.counts
        counts[key] = count = counts.get(key, 0) + 1
        if count >= self.rule.threshold and (
                self.best is None
                or _witness_rank(*key) < _witness_rank(*self.best)):
            self.best = key
            return True
        return False

    def current(self) -> tuple[str | None, int]:
        if self.best is None:
            return (None, 0)
        i, leaf = self.best
        return (leaf, i)


_UNSEEN = object()  # a block the memo has no answer for yet


# ---------------------------------------------------------------------------
# density rule arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductionProfile:
    """Per-slot block production shape implied by the leader rate.

    ``rate`` is the per-slot leader rate; key counts bound the number of
    independent per-slot lotteries each side can hold (known here because
    the stake pool is sized).
    """

    rate: float
    honest_keys: int = 1
    adversary_keys: int = 1

    def __post_init__(self):
        if not 0 < self.rate <= 1:
            raise ConfigError("per-slot leader rate must lie in (0, 1]")
        if self.honest_keys < 1 or self.adversary_keys < 1:
            raise ConfigError("each side needs at least one key")

    def worst_case_shares(self, theta_bound) -> tuple[Fraction, Fraction]:
        th = as_fraction(theta_bound)
        return th / (th + 1), Fraction(1) / (th + 1)

    def per_slot_gap(self, theta_bound) -> float:
        th = float(as_fraction(theta_bound))
        return self.rate * (th - 1) / (2 * (th + 1))

    def expected_honest(self, theta_bound, interval_len: int) -> float:
        h, _ = self.worst_case_shares(theta_bound)
        return self.rate * float(h) * interval_len

    def expected_adversary(self, theta_bound, interval_len: int) -> float:
        _, a = self.worst_case_shares(theta_bound)
        return self.rate * float(a) * interval_len


def density_threshold(theta_bound, profile: ProductionProfile,
                      interval_len: int) -> float:
    """Block-count threshold separating honest from adversary production.

    The midpoint between the worst-case expected block counts of the two
    sides over the window.  With shares summing to one this is
    ``interval_len * rate / 2``; the domination bound enters through the
    tail gap used in interval_length_r, not through the midpoint.
    """
    th = as_fraction(theta_bound)
    if th <= 1:
        raise ConfigError("domination bound must exceed 1")
    hi = profile.expected_honest(theta_bound, interval_len)
    lo = profile.expected_adversary(theta_bound, interval_len)
    return (hi + lo) / 2


def _tail_budget(eps_prime: float, duration: int, interval_len: int) -> float:
    return eps_prime / (2 * math.ceil(duration / interval_len))


def _two_sided_tail(r: int, gap: float, profile: ProductionProfile) -> float:
    miss = math.exp(-2 * r * gap * gap / profile.honest_keys)
    forge = math.exp(-2 * r * gap * gap / profile.adversary_keys)
    return miss + forge


def interval_length_r(theta_bound, eps_prime: float, profile: ProductionProfile,
                      duration: int) -> int:
    """Smallest window length making the two-sided tail bound hold.

    Per window of length r, the chance the honest side misses the
    threshold plus the chance the adversary reaches it is bounded (per-
    key-per-slot Bernoulli cells, Hoeffding two-sided) by
    exp(-2 r g^2 / K_h) + exp(-2 r g^2 / K_a), with g the per-slot
    expectation gap to the midpoint.  That sum must not exceed the
    per-window share of eps', eps' / (2 * ceil(duration / r)).  Both
    sides are monotone in r, so the smallest admissible r is found by
    doubling then bisecting.  Grows like ln(duration / eps'), shrinks as
    the domination bound grows.
    """
    th = as_fraction(theta_bound)
    if th <= 1:
        raise ConfigError("domination bound must exceed 1")
    if not 0 < eps_prime < 1:
        raise ConfigError("error budget must lie in (0, 1)")
    gap = profile.per_slot_gap(theta_bound)
    if gap <= 0:
        raise ConfigError("per-slot gap must be positive")

    def ok(r: int) -> bool:
        return _two_sided_tail(r, gap, profile) <= _tail_budget(eps_prime, duration, r)

    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > 2**40:
            raise ConfigError("no admissible window length below 2^40 slots")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi
