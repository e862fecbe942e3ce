"""Adversarial strategies and derived-instance builders.

The strategies here stay inside the execution model: every broadcast is
covered by a grant or by prior receipt, every request respects the
budget, and all hidden state is plain protocol state.  What makes them
adversarial is *withholding* — building private chains and releasing
them at the worst moment.

``PrivateForkStrategy`` is the classic double-spend: fork the public
chain at its tip, mine privately, wait until the public side confirms a
victim block, then release a strictly longer fork.

``SimulationAttackerStrategy`` never looks at the public chain at all.
It hosts a complete private execution of a designated honest roster —
same processor ids, same keys, same message-delay randomness — and
forwards that inner execution's permit requests to the real permitter
under its own keys.  Because grant draws and delays depend only on keys,
slots, message-set digests and message ids, the inner execution unfolds
exactly as a real all-honest run of that roster would, and the real
grant sequence matches it one for one.  At the release slot the whole
inner ledger is broadcast at once.

``build_isolated_observer_instance`` extends a finished run's config
with silent observer processors that receive nothing except a chosen
slice of the original ledger, delivered at a chosen slot — the shape
used to show that two conflicting message sets can both be handed to
someone as "the ledger".
"""

from __future__ import annotations

from dataclasses import replace

from .blocktree import BlockSetView
from .engine import Execution, ExecutionConfig, ProcessorSpec, check_roster
from .errors import ConfigError
from .messages import Message, make_block
from .network import SynchronySchedule, TimingRule
from .permitter import PermitRequest
from .protocols import (Candidates, KDeepRule, LeaderSlots, ObserverStrategy,
                        StepContext, Strategy)

# ---------------------------------------------------------------------------
# private-fork double spend
# ---------------------------------------------------------------------------


class PrivateForkStrategy(Strategy):
    """Withhold a fork until the public side confirms a victim block.

    Rounds: fork at the current public tip, request work for blocks on
    the private fork only (the presented message set omits the public
    blocks that outrun it, so the fork tip is the longest chain of the
    presented set), and release once

    * the public chain has grown ``confirm_k + 1`` past the fork base —
      honest depth-``confirm_k`` confirmation has then locked in a
      post-fork block — and
    * the private fork is ``depth_margin`` longer than the public chain,
      so release flips every honest longest-chain tip.

    A round that falls ``abandon_margin`` behind restarts at the new
    public tip.  Withheld blocks of abandoned rounds are never sent.
    """

    name = "private_fork"

    def __init__(self, confirm_k: int, depth_margin: int = 1,
                 abandon_margin: int | None = 2):
        if confirm_k < 0:
            raise ConfigError("confirmation depth cannot be negative")
        if depth_margin < 1:
            raise ConfigError("release margin must be at least 1")
        if abandon_margin is not None and abandon_margin < 1:
            raise ConfigError("abandon margin must be at least 1 (or None)")
        self.confirm_k = int(confirm_k)
        self.depth_margin = int(depth_margin)
        self.abandon_margin = None if abandon_margin is None else int(abandon_margin)
        self._fork: BlockSetView | None = None
        self._base_len = 1
        self._unreleased: list[Message] = []
        self._reset_next = False
        self._candidates = Candidates()
        self.rounds = 0
        self.releases = 0

    def _reset(self, ctx: StepContext) -> None:
        self._fork = ctx.view.chain_view()
        self._base_len = self._fork.longest_length
        self._unreleased = []
        self.rounds += 1

    def on_receive(self, ctx: StepContext) -> None:
        if self._fork is None:
            self._reset(ctx)
        for resp in ctx.responses:
            for msg in resp.granted:
                if self._fork.is_active(msg.parent):
                    self._fork.add(msg)
                    self._unreleased.append(msg)
                # grants answering a round that was since abandoned are stale

    def plan_broadcasts(self, ctx: StepContext) -> list[Message]:
        if self._reset_next:
            self._reset_next = False
            self._reset(ctx)
        pub = ctx.view.longest_length
        priv = self._fork.longest_length
        if (self._unreleased
                and priv >= pub + self.depth_margin
                and pub >= self._base_len + self.confirm_k + 1):
            out = list(self._unreleased)
            self._unreleased = []
            self._reset_next = True
            self.releases += 1
            return out
        if (self.abandon_margin is not None
                and pub - priv >= self.abandon_margin):
            self._reset(ctx)
        return []

    def plan_requests(self, ctx: StepContext) -> list[PermitRequest]:
        tip = self._fork.longest_tip
        return [
            PermitRequest(key=key, view=self._fork,
                          candidate=self._candidates.extending(key, tip))
            for key in ctx.keys
        ]


class StakeWithholdStrategy(Strategy):
    """Timed-lane withholding: hoard leaderships on a private fork.

    Requests leadership for every upcoming slot like the honest strategy,
    but extends a *private* fork (rooted at the public tip as of the
    current round) with each won slot, timestamping blocks with their
    leadership slots.  Every ``period`` slots the whole fork is released
    and a new round starts at the fresh public tip.  Against a density
    confirmation rule a dominated staker's fork carries too few blocks
    per window to forge a witness, so releases should never move anyone's
    confirmed chain — which is exactly what runs using this strategy
    measure.
    """

    name = "stake_withhold"

    def __init__(self, period: int):
        if period < 1:
            raise ConfigError("release period must be at least one slot")
        self.period = int(period)
        self._slots = LeaderSlots()
        self._fork: BlockSetView | None = None
        self._withheld: list[Message] = []

    def _refork(self, ctx: StepContext) -> None:
        self._fork = ctx.view.chain_view()
        self._withheld = []

    def on_receive(self, ctx: StepContext) -> None:
        if self._fork is None:
            self._refork(ctx)
        self._slots.note(ctx.responses)

    def plan_broadcasts(self, ctx: StepContext) -> list[Message]:
        key = self._slots.take(ctx.slot)
        if key is not None:
            block = make_block(key, parent=self._fork.longest_tip,
                               timestamp=ctx.slot)
            self._fork.add(block)
            self._withheld.append(block)
        if ctx.slot % self.period == 0 or ctx.slot == ctx.duration:
            out = list(self._withheld)
            self._refork(ctx)
            return out
        return []

    def plan_requests(self, ctx: StepContext) -> list[PermitRequest]:
        return self._slots.requests(ctx, self._fork)


# ---------------------------------------------------------------------------
# full-simulation withholding
# ---------------------------------------------------------------------------


class _RequestRecorder:
    """Permitter of a simulated world: it grants nothing itself and keeps
    every request for the attacker to forward under its own keys, a
    standing request once for every slot it is drawn."""

    def __init__(self, timed: bool, lookahead: int):
        # the setting and window of the real permitter the requests go to
        self.timed = timed
        self.lookahead = lookahead
        self.requests: list[PermitRequest] = []

    def respond(self, request: PermitRequest, pool, slot: int,
                seed: int) -> None:
        self.requests.append(request)

    def draw(self, request: PermitRequest, pool, seed: int):
        return lambda slot: self.respond(request, pool, slot, seed)


class SimulationAttackerStrategy(Strategy):
    """Privately run an honest roster, then dump its ledger on the world.

    ``inner_processors`` name the simulated roster; the attacker must own
    every key group they use.  ``inner_timing`` delivers the simulation's
    internal messages; give it the same policy and seed as the execution
    this simulation should mirror and the private run reproduces that
    execution exactly.  Public messages are ignored until release.

    The private world is an ``Execution`` stepped once per slot, so it
    runs under the engine's rules.  Its permitter only records requests;
    the attacker forwards them to the real permitter and hands each real
    response to the simulated processor that owns the key.

    ``release`` is either a fixed slot or ``"adaptive"``: release at the
    first slot where the inner chain is long enough to flip every honest
    tip (``margin`` blocks ahead of the public chain) *and* both sides
    have depth-``confirm_k`` confirmed a post-genesis block, so release
    forces a confirmed-chain reorganization.
    """

    name = "simulation_release"

    def __init__(self, inner_processors: list[ProcessorSpec],
                 inner_timing: TimingRule, confirm_k: int,
                 release: int | str = "adaptive", margin: int = 1):
        if isinstance(release, str) and release != "adaptive":
            raise ConfigError(f"unknown release policy {release!r}")
        if not isinstance(release, str) and int(release) < 1:
            raise ConfigError("fixed release slot must be at least 1")
        check_roster(inner_processors)
        if confirm_k < 0:
            raise ConfigError("confirmation depth cannot be negative")
        self.confirm_k = int(confirm_k)
        self.margin = int(margin)
        self.release = release
        self._rule = inner_timing
        self._specs = sorted(inner_processors, key=lambda s: s.id)
        self._key_home = {g: s.id for s in self._specs for g in s.groups}
        self._inner: Execution | None = None
        self._recorder: _RequestRecorder | None = None
        self._released = False
        self.released_at: int | None = None

    def _start(self, ctx: StepContext) -> None:
        self._recorder = _RequestRecorder(ctx.timed, ctx.lookahead)
        config = ExecutionConfig(
            delta=ctx.delta, epsilon=ctx.epsilon,
            schedule=SynchronySchedule.fully_synchronous(ctx.duration),
            timing=None,  # Execution is handed the rule itself
            pool=None,  # the recorder reads no balances
            permitter=self._recorder,
            confirmation=KDeepRule(self.confirm_k),
            processors=self._specs,
            seed=0,
            label=self.name,
        )
        self._inner = Execution(config, self._rule, header={})

    # -- strategy hooks -------------------------------------------------------

    def on_receive(self, ctx: StepContext) -> None:
        if self._inner is None:
            self._start(ctx)
        if self._released:
            return
        runtimes = self._inner.runtimes
        for resp in ctx.responses:
            home = self._key_home.get(resp.key.owner)
            if home is not None:
                runtimes[home].pending.append(resp)
        self._inner.step(ctx.slot)

    @property
    def standing(self) -> bool:
        """True once released, and before while nothing is due in the
        private world and the release waits on no slot."""
        return self._released or (
            self.release == "adaptive" and self._inner is not None and all(
                rt.draws is not None and not rt.pending and not rt.inbox
                for rt in self._inner.runtimes.values()))

    def _should_release(self, ctx: StepContext) -> bool:
        if self.release != "adaptive":
            return ctx.slot >= int(self.release)
        inner_len = max(rt.view.longest_length
                        for rt in self._inner.runtimes.values())
        public_len = ctx.view.longest_length
        return (inner_len >= max(public_len + self.margin, self.confirm_k + 2)
                and public_len >= self.confirm_k + 2)

    def plan_broadcasts(self, ctx: StepContext) -> list[Message]:
        inner = self._inner.transcript
        if self._released or not inner.broadcasts:
            return []
        if self._should_release(ctx):
            self._released = True
            self.released_at = ctx.slot
            return [inner.store[mid] for _slot, _proc, mid in inner.broadcasts]
        return []

    def plan_requests(self, ctx: StepContext) -> list[PermitRequest]:
        if self._released:
            return []
        requests, self._recorder.requests = self._recorder.requests, []
        return requests


# ---------------------------------------------------------------------------
# isolated observers over a finished run
# ---------------------------------------------------------------------------


def build_isolated_observer_instance(base_config: ExecutionConfig,
                                     base_transcript,
                                     arms: list[tuple[str, list[str], int]],
                                     ) -> ExecutionConfig:
    """Extend a run with observers that each see one chosen ledger slice.

    ``arms`` lists (observer id, message ids, delivery slot).  The new
    config keeps the original roster, seed and timing *realization* —
    grant draws and delays are functions of keys, slots and message
    content, never of the roster — so the original execution replays
    verbatim while each observer receives exactly its slice, all at once,
    at its delivery slot.  The whole run is marked asynchronous: handing
    an isolated processor a bare slice is only admissible when no
    synchrony window ever applies.
    """
    duration = base_config.duration
    known = set(base_transcript.store)
    first_sent: dict[str, int] = {}
    for slot, _sender, mid in base_transcript.broadcasts:
        first_sent.setdefault(mid, slot)
    taken = {p.id for p in base_config.processors}
    entries: list[dict] = []
    observers: list[ProcessorSpec] = []
    for obs_id, msg_ids, deliver_slot in arms:
        if obs_id in taken:
            raise ConfigError(f"observer id {obs_id!r} already in the roster")
        taken.add(obs_id)
        if not 1 <= deliver_slot <= duration:
            raise ConfigError(f"delivery slot {deliver_slot} outside the run")
        observers.append(ProcessorSpec(obs_id, (), ObserverStrategy))
        for mid in msg_ids:
            if mid not in known:
                raise ConfigError(f"message {mid!r} is not in the base ledger")
            sent = first_sent.get(mid)
            if sent is not None and sent >= deliver_slot:
                raise ConfigError(
                    f"message {mid!r} is broadcast at slot {sent}, too late "
                    f"to reach an observer at slot {deliver_slot}")
            if sent is not None:
                entries.append({"receiver": obs_id, "msg_id": mid,
                                "slot": deliver_slot})

    return replace(
        base_config,
        schedule=SynchronySchedule.fully_asynchronous(duration),
        timing={"policy": "custom", "base": base_config.timing,
                "entries": entries,
                "isolated_receivers": [o.id for o in observers]},
        processors=[*base_config.processors, *observers],
        label=f"{base_config.label}+observers",
    )
