"""The timeslot execution engine.

An execution runs a roster of processors for a fixed number of slots.
Within every slot, in ascending processor-id order, each processor:

1. receives — messages the timing rule delivers this slot, plus the
   permitter's responses to its previous slot's requests;
2. broadcasts — a finite message set, each message either already held
   or covered by a permitter grant, with embedded-pair authenticity and
   block-parent discipline enforced (violations abort the run);
3. requests — a budget-checked request list, answered by the permitter
   immediately but handed back at the start of the next slot;
4. transitions — protocol state updates inside the strategy object.

Broadcast messages reach the sender's own state immediately; every other
processor receives them at the slot the timing rule picks, each message
at most once per receiver.  A delivery due after the last slot is dropped
here, the one place the horizon cuts the network.  The genesis block is
in every state from the start.  After a slot in which a processor's
view moved (activated a block its tracker counts), the confirmation
rule's answer is read and change-points are recorded.

The engine alone records what each processor holds (message ids, with the
slot they are held from) and keeps one inbox of queued deliveries per
processor.  A message's (signer, body digest) pairs, its own and those it
embeds, are registered once, at its first broadcast; holding it receives
them.  The view a strategy reads mirrors the held messages; writing into
it grants nothing.

``Execution`` holds one run's state and ``Execution.step`` runs one slot,
in which a processor with a ``standing`` strategy and no delivery or
response due is not stepped: its last requests are drawn again.  A
strategy that overrides no hook, as the observer, stands.
``run_execution`` validates a config, builds its timing rule from the
spec and steps it through every slot.  A strategy that simulates a
private world steps an ``Execution`` of its own, handed the rule itself,
so that world runs under the same rules.

The transcript is the engine's complete, deterministic record: re-running
a config with the same seed yields byte-identical serialized transcripts.
Its lines are ``CANONICAL_JSON`` records: the header is encoded by it, and
every other record is written from a fixed template that equals it
(``tests/test_canonical_json.py`` checks one against the other); a save
writes them one window of slots at a time.  The loader checks each field's
type, so a loaded transcript writes back its own bytes.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import NamedTuple

from .blocktree import BlockIndex, BlockSetView
from .errors import (ConfigError, DanglingBlockError, ExecutionFault,
                     ScheduleViolationError, TranscriptFormatError)
from .messages import CANONICAL_JSON, Message, PublicKey, genesis_block
from .network import SynchronySchedule, TimingRule, build_timing_rule
from .permitter import LeaderGrant, PermitResponse, enforce_request_budget
from .protocols import ConfirmationRule, StepContext, Strategy
from .resource_pool import ResourcePool

TRANSCRIPT_FORMAT = 1
# slots serialized together: a save holds one window's lines at a time
WINDOW_SLOTS = 256


@dataclass
class ProcessorSpec:
    """Roster entry: identity, owned key groups, and the strategy factory."""

    id: str
    keys: tuple[PublicKey, ...]
    strategy: object  # zero-argument callable returning a Strategy
    adversary: bool = False

    @cached_property
    def groups(self) -> frozenset[str]:
        """The key groups of ``keys``, computed on first use."""
        return frozenset(k.owner for k in self.keys)


@dataclass
class ExecutionConfig:
    """A fully resolved execution instance.

    Each fact has one owner: the horizon is the schedule's and the setting
    (timed or untimed) is the permitter's.  ``timing`` is a spec dict that
    ``run_execution`` builds and checks against the schedule with
    ``build_timing_rule``; a rule object is refused.  ``Execution`` takes a
    built rule, for a private world stepped by a strategy.
    """

    delta: int
    epsilon: float
    schedule: SynchronySchedule
    timing: dict  # a spec for build_timing_rule
    pool: ResourcePool
    permitter: object  # states timed and lookahead; see the permitter module
    confirmation: ConfirmationRule
    processors: list[ProcessorSpec]
    seed: int
    label: str = "run"

    @property
    def duration(self) -> int:
        """The number of slots, fixed by the schedule."""
        return self.schedule.duration

    def validate(self) -> None:
        if self.delta < 1:
            raise ConfigError("the delay bound must be at least one slot")
        if not 0 < self.epsilon < 1:
            raise ConfigError("epsilon must lie strictly between 0 and 1")
        if not isinstance(self.timing, dict):
            raise ConfigError(
                f"timing is a {type(self.timing).__name__}, not a spec dict "
                f"for build_timing_rule")
        check_roster(self.processors)
        self.permitter.check_pool(self.pool)
        owned = {g for p in self.processors for g in p.groups}
        for key in self.pool.declared_keys():
            if key.owner not in owned:
                raise ConfigError(
                    f"pool assigns balance to key group {key.owner!r} owned by "
                    f"no processor"
                )


def check_roster(processors: list[ProcessorSpec]) -> None:
    """Refuse an empty roster, an empty or repeated id, or a key group
    claimed by two processors."""
    if not processors:
        raise ConfigError("the roster is empty")
    ids = [p.id for p in processors]
    if len(set(ids)) != len(ids):
        raise ConfigError("processor ids must be unique")
    groups_seen: dict[str, str] = {}
    for p in processors:
        if not p.id:
            raise ConfigError("processor ids must be nonempty")
        for g in p.groups:
            if groups_seen.setdefault(g, p.id) != p.id:
                raise ConfigError(f"key group {g!r} is claimed by both "
                                  f"{groups_seen[g]!r} and {p.id!r}")


class Grant(NamedTuple):
    """One grant: at ``slot``, ``proc``'s request under ``key`` won the
    sorted message ids ``granted`` or the slot ``leader_slot``."""

    slot: int
    proc: str
    key: PublicKey
    granted: tuple[str, ...]
    leader_slot: int | None
    m_digest: int
    candidate: str | None


@dataclass
class Transcript:
    """Deterministic record of one execution, held as flat tuples, each
    with its slot first; JSON shapes live only in the saved lines."""

    label: str
    seed: int
    header: dict
    genesis: Message
    index: BlockIndex
    store: dict[str, Message]
    broadcasts: list[tuple[int, str, str]] = field(default_factory=list)
    deliveries: list[tuple[int, str, str]] = field(default_factory=list)
    grants: list[Grant] = field(default_factory=list)
    confirmations: list[tuple[int, str, str | None, int]] = field(default_factory=list)
    duration: int = 0
    roster_ids: tuple[str, ...] = ()
    adversary_ids: tuple[str, ...] = ()

    # -- queries ------------------------------------------------------------

    def last_confirmed(self, proc: str) -> tuple[str | None, int]:
        """``proc``'s last (confirmed tip, confirmed length); (None, 0)
        when it never confirmed."""
        return next(((tip, ln) for _, p, tip, ln in reversed(self.confirmations)
                     if p == proc), (None, 0))

    def delivery_map(self) -> dict[tuple[str, str], int]:
        """(receiver, msg_id) -> earliest slot the receiver held the message:
        its delivery or its own broadcast, whichever came first."""
        held: dict[tuple[str, str], int] = {}
        for slot, proc, mid in (*self.broadcasts, *self.deliveries):
            if held.get((proc, mid), slot) >= slot:
                held[(proc, mid)] = slot
        return held

    # -- serialization --------------------------------------------------------

    def to_bytes(self, window: list | None = None) -> bytes:
        """The serialized transcript; given a window of ``_chunks``, only
        the lines of its deliveries, broadcasts, grants and confirmations."""
        if window is None:
            return b"".join(self._chunks())
        deliveries, broadcasts, grants, confirmations = window
        q = _quote
        # (4 * slot + kind, line); kinds in slot order: delivery, broadcast,
        # grant, confirm.  The stable sort keeps each kind's own order.
        events = [(4 * slot, f'{{"msg_id":{q(mid)},"proc":{q(proc)},'
                             f'"slot":{slot},"type":"delivery"}}\n')
                  for slot, proc, mid in deliveries]
        store = self.store
        events += [(4 * slot + 1, f'{{"msg":{store[mid].canonical_json()},'
                                  f'"proc":{q(proc)},"slot":{slot},'
                                  f'"type":"broadcast"}}\n')
                   for slot, proc, mid in broadcasts]
        events += [(4 * g.slot + 2, _grant_line(g)) for g in grants]
        events += [(4 * slot + 3, f'{{"len":{ln},"proc":{q(proc)},"slot":{slot},'
                                  f'"tip":{"null" if tip is None else q(tip)},'
                                  f'"type":"confirm"}}\n')
                   for slot, proc, tip, ln in confirmations]
        events.sort(key=itemgetter(0))
        return "".join([line for _, line in events]).encode()

    def write(self, fh) -> str:
        """Write the serialized transcript to the binary file ``fh``, one
        window of slots at a time, and return the sha256 of its bytes."""
        sha = hashlib.sha256()
        for chunk in self._chunks():
            sha.update(chunk)
            fh.write(chunk)
        return sha.hexdigest()

    def save(self, path) -> str:
        with open(path, "wb") as fh:
            return self.write(fh)

    def _chunks(self):
        """The header line, the lines of each ``WINDOW_SLOTS`` slots from the
        first slot present, the end line.  Each kind is stably sorted by slot
        once, so a window sorted by slot and kind is in the global order."""
        yield (CANONICAL_JSON.encode({
            "type": "header", "format": TRANSCRIPT_FORMAT, "label": self.label,
            "seed": self.seed, "duration": self.duration, "config": self.header,
            "roster": list(self.roster_ids),
            "adversaries": list(self.adversary_ids)}) + "\n").encode()
        slot = itemgetter(0)
        kinds = [sorted(recs, key=slot) for recs in (
            self.deliveries, self.broadcasts, self.grants, self.confirmations)]
        ends = [r[0] for recs in kinds if recs for r in (recs[0], recs[-1])]
        cuts = [0] * len(kinds)
        for lo in range(min(ends, default=1), max(ends, default=0) + 1, WINDOW_SLOTS):
            stops = [bisect_left(recs, lo + WINDOW_SLOTS, cut, key=slot)
                     for recs, cut in zip(kinds, cuts)]
            yield self.to_bytes([recs[a:b] for recs, a, b
                                 in zip(kinds, cuts, stops)])
            cuts = stops
        yield f'{{"broadcasts":{len(self.broadcasts)},"type":"end"}}\n'.encode()

    @classmethod
    def from_lines(cls, lines) -> "Transcript":
        """Parse the serialized form; the header must be the first record.

        Raises ``TranscriptFormatError`` naming the 1-based line of the
        first problem: a line that is not a JSON record, a missing field, a
        field of the wrong type (the header's ``config`` included, for the
        ``timed``, ``delta`` and ``schedule`` entries the loader and
        ``validate`` read), a record of unknown type, a missing or
        misplaced header, a record after the end record, and an end record
        that is missing or miscounts the broadcasts.
        """
        head = None
        end = None
        broadcasts, deliveries, grants, confirmations = [], [], [], []
        lineno = 0
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                kind = rec["type"]
                if end is not None:
                    raise TranscriptFormatError("record after the end record")
                if (kind == "header") != (head is None):
                    raise TranscriptFormatError(
                        "a second header record" if head is not None else
                        f"the first record is {kind!r}, not the header")
                if kind == "header":
                    config = _field(rec, "config", _OBJ)
                    genesis = genesis_block(_field(config, "timed", _BOOL))
                    _field(config, "delta", _INT)
                    # the schedule's own checks, which ``validate`` relies on
                    SynchronySchedule.from_json(
                        _field(config, "schedule", _SCHEDULE))
                    index = BlockIndex(genesis)
                    store = {genesis.id: genesis}
                    head = dict(
                        label=_field(rec, "label", _STR),
                        seed=_field(rec, "seed", _INT),
                        header=config,
                        duration=_field(rec, "duration", _INT),
                        roster_ids=tuple(_field(rec, "roster", _STRS)),
                        adversary_ids=tuple(_field(rec, "adversaries", _STRS)))
                elif kind == "broadcast":
                    slot = _field(rec, "slot", _INT)
                    proc = _field(rec, "proc", _STR)
                    msg = Message.from_json(rec["msg"])
                    store[msg.id] = msg
                    if msg.is_block:
                        index.add(msg)
                    broadcasts.append((slot, proc, msg.id))
                elif kind == "delivery":
                    deliveries.append((_field(rec, "slot", _INT),
                                       _field(rec, "proc", _STR),
                                       _field(rec, "msg_id", _STR)))
                elif kind == "grant":
                    slot, proc, key, granted, *rest = (
                        _field(rec, name, check) for name, check in _GRANT_FIELDS)
                    grants.append(Grant(slot, proc, PublicKey(*key),
                                        tuple(granted), *rest))
                elif kind == "confirm":
                    confirmations.append((_field(rec, "slot", _INT),
                                          _field(rec, "proc", _STR),
                                          _field(rec, "tip", _STR_OR_NULL),
                                          _field(rec, "len", _INT)))
                elif kind == "end":
                    end = (lineno, _field(rec, "broadcasts", _INT))
                else:
                    raise TranscriptFormatError(f"unknown record type {kind!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise TranscriptFormatError(
                    f"line {lineno}: {_format_problem(exc)}") from None
        if head is None:
            raise TranscriptFormatError(
                f"line {lineno + 1}: the transcript ends without a header record")
        if end is None:
            raise TranscriptFormatError(
                f"line {lineno + 1}: the transcript ends without an end record")
        if end[1] != len(broadcasts):
            raise TranscriptFormatError(
                f"line {end[0]}: the end record counts {end[1]} broadcasts, "
                f"the transcript holds {len(broadcasts)}")
        return cls(genesis=genesis, index=index, store=store,
                   broadcasts=broadcasts, deliveries=deliveries, grants=grants,
                   confirmations=confirmations, **head)

    @classmethod
    def load(cls, path) -> "Transcript":
        # bytes lines: a line that is not UTF-8 fails in json.loads, which
        # names it, instead of in the file's decoder
        with open(path, "rb") as fh:
            return cls.from_lines(fh)


# the loader's field checks: (test, what a field must be); JSON gives
# exact types, so a bool is not taken for an int
_INT = (lambda v: type(v) is int, "an int")
_BOOL = (lambda v: type(v) is bool, "a bool")
_OBJ = (lambda v: type(v) is dict, "an object")
_INT_OR_NULL = (lambda v: v is None or type(v) is int, "an int or null")
_STR = (lambda v: type(v) is str, "a string")
_STR_OR_NULL = (lambda v: v is None or type(v) is str, "a string or null")
_STRS = (lambda v: type(v) is list and all(type(x) is str for x in v),
         "a list of strings")
_KEY = (lambda v: type(v) is list and len(v) == 2 and type(v[0]) is str
        and type(v[1]) is int, "a [str, int] key")
# the header's schedule, in ``SynchronySchedule.to_json``'s shape
_SCHEDULE = (lambda v: type(v) is dict and type(v.get("duration")) is int
             and type(v.get("setting")) is str
             and type(v.get("async_intervals")) is list
             and all(type(iv) is list and len(iv) == 2
                     and all(type(t) is int for t in iv)
                     for iv in v["async_intervals"]),
             "a schedule object")
_GRANT_FIELDS = (("slot", _INT), ("proc", _STR), ("key", _KEY),
                 ("granted", _STRS), ("leader_slot", _INT_OR_NULL),
                 ("m_digest", _INT), ("candidate", _STR_OR_NULL))


def _field(rec: dict, name: str, check):
    value = rec[name]
    test, what = check
    if not test(value):
        raise TranscriptFormatError(f"field {name!r} is {value!r:.40}, not {what}")
    return value


def _grant_line(g: Grant) -> str:
    q = _quote
    cand, lslot = g.candidate, g.leader_slot
    return (f'{{"candidate":{"null" if cand is None else q(cand)},'
            f'"granted":[{",".join(map(q, g.granted))}],'
            f'"key":[{q(g.key.owner)},{g.key.index}],'
            f'"leader_slot":{"null" if lslot is None else lslot},'
            f'"m_digest":{g.m_digest},"proc":{q(g.proc)},'
            f'"slot":{g.slot},"type":"grant"}}\n')


def _format_problem(exc: Exception) -> str:
    if isinstance(exc, DanglingBlockError):
        return f"block parent {exc.args[0]} is not broadcast before it"
    if isinstance(exc, KeyError):
        return f"the record has no field {exc}"
    if isinstance(exc, json.JSONDecodeError):
        return f"not valid JSON ({exc.msg})"
    return str(exc)


class _ProcessorRuntime:
    """Engine-side mutable state for one processor."""

    def __init__(self, spec: ProcessorSpec, view: BlockSetView, strategy: Strategy,
                 tracker, genesis: Message, carriers: dict):
        self.spec = spec
        self.view = view
        self.strategy = strategy
        self.tracker = tracker
        self.pending: list[PermitResponse] = []
        self.granted_ids: set[str] = set()
        # each leader grant keyed by itself, equal to its (key, slot); only
        # it can cover a block signed by that key with that timestamp
        self.leader_grants: dict[LeaderGrant, LeaderGrant] = {}
        # msg id -> slot held from: own broadcast, queued delivery's due slot
        self.held: dict[str, int] = {genesis.id: 0}
        self.carriers = carriers  # the execution's pair -> carrying ids
        self.inbox: dict[int, list[str]] = {}  # due slot -> ids, in queueing order
        self.last_confirmed: tuple[str | None, int] | None = None
        self.moved = True  # the tracker's answer may have changed
        self.draws: list | None = None  # standing: (request, draw) pairs
        # made at the first step; later steps rewrite only its slot,
        # responses and delivered messages
        self.ctx: StepContext | None = None

    def hold(self, msg: Message, slot: int) -> None:
        """Take a delivered or self-broadcast message into the state."""
        held, mid = self.held, msg.id
        if held.get(mid, slot) >= slot:
            held[mid] = slot
        for block_id in self.view.add(msg):
            if self.tracker.on_block(block_id):
                self.moved = True

    def carries(self, pair: tuple, slot: int) -> bool:
        """True when a message held by ``slot`` carries the pair."""
        return any(self.held.get(mid, slot + 1) <= slot
                   for mid in self.carriers.get(pair, ()))


def validate_broadcast(runtime: _ProcessorRuntime, msg: Message, slot: int) -> None:
    """Enforce the broadcast rules; raises ExecutionFault on violation."""
    pid = runtime.spec.id
    if msg.signer is None:
        raise ExecutionFault(pid, slot, "broadcast message lacks a signer")
    groups = runtime.spec.groups
    if msg.signer.owner not in groups and not runtime.carries(msg.pair(), slot):
        raise ExecutionFault(
            pid, slot, f"message signed by unowned key {msg.signer.label()} "
            f"was never received")
    for key, digest in msg.embedded:
        if key.owner not in groups and not runtime.carries((key, digest), slot):
            raise ExecutionFault(
                pid, slot, f"embedded pair under {key.label()} was never "
                f"signed or received")
    held = runtime.held
    grant = runtime.leader_grants.get((msg.signer, msg.timestamp))
    permitted = (
        held.get(msg.id, slot + 1) <= slot
        or msg.id in runtime.granted_ids
        or (grant is not None and grant.covers(msg))
    )
    if not permitted:
        raise ExecutionFault(pid, slot, f"message {msg.id[:12]} is not permitted")
    if msg.is_block and held.get(msg.parent, slot + 1) > slot:
        raise ExecutionFault(
            pid, slot, f"block parent {str(msg.parent)[:12]} not in message state")


class Execution:
    """The run state of one execution, advanced one slot at a time.

    Holds the message store, the block index, every processor's runtime
    (with its inbox of queued deliveries) and the transcript being written.
    ``step(slot)`` runs one slot's receive, broadcast, request and
    confirmation phases under the model's rules.  The config is taken as
    given: validating it is the caller's job, as ``run_execution`` does.
    """

    def __init__(self, config: ExecutionConfig, rule: TimingRule, header: dict):
        self.config = config
        self.rule = rule
        genesis = genesis_block(config.permitter.timed)
        self.index = BlockIndex(genesis)
        self.store: dict[str, Message] = {genesis.id: genesis}
        # (signer, body digest) -> ids of the messages carrying it
        self.carriers: dict[tuple, tuple[str, ...]] = {}
        roster = sorted(config.processors, key=lambda p: p.id)
        self.runtimes: dict[str, _ProcessorRuntime] = {}  # roster order
        for spec in roster:
            view = BlockSetView.fresh(self.index, genesis)
            strategy = spec.strategy()
            if not isinstance(strategy, Strategy):
                raise ConfigError(f"strategy factory for {spec.id!r} returned "
                                  f"{type(strategy).__name__}")
            if (strategy.standing and not hasattr(config.permitter, "draw")
                    and type(strategy).plan_requests is not Strategy.plan_requests):
                raise ConfigError(f"{spec.id!r}: a standing strategy that requests "
                                  f"needs a permitter that can draw")
            tracker = config.confirmation.make_tracker(view)
            self.runtimes[spec.id] = _ProcessorRuntime(
                spec, view, strategy, tracker, genesis, self.carriers)
        self.transcript = Transcript(
            label=config.label, seed=config.seed, header=header,
            genesis=genesis, index=self.index, store=self.store,
            duration=config.duration,
            roster_ids=tuple(p.id for p in roster),
            adversary_ids=tuple(p.id for p in roster if p.adversary),
        )

    def step(self, slot: int) -> None:
        config, rule, store = self.config, self.rule, self.store
        duration, permitter = config.duration, config.permitter
        runtimes = self.runtimes
        transcript = self.transcript

        # -- receive phase ------------------------------------------------
        for pid, rt in runtimes.items():  # roster order
            if rt.draws is not None and not rt.pending and slot not in rt.inbox:
                continue  # idle and standing: its requests are drawn again
            delivered: list[Message] = []
            for mid in rt.inbox.pop(slot, ()):
                msg = store[mid]
                transcript.deliveries.append((slot, pid, mid))
                delivered.append(msg)
                rt.hold(msg, slot)
            responses = tuple(rt.pending)
            rt.pending = []
            for resp in responses:
                if resp.granted:
                    rt.granted_ids.update(m.id for m in resp.granted)
                if (lg := resp.leader) is not None:
                    rt.leader_grants[lg] = lg
            ctx = rt.ctx
            if ctx is None:
                spec = rt.spec
                ctx = rt.ctx = StepContext(
                    slot=slot, processor_id=pid, keys=spec.keys, view=rt.view,
                    responses=responses, delivered=tuple(delivered),
                    duration=duration, delta=config.delta,
                    epsilon=config.epsilon, timed=permitter.timed,
                    lookahead=permitter.lookahead,
                )
            else:
                ctx.slot, ctx.responses = slot, responses
                ctx.delivered = tuple(delivered)
            rt.draws = None  # stepped: drawn anew after its requests
            rt.strategy.on_receive(ctx)

        # -- broadcast + request phase --------------------------------------
        pool, seed, carriers = config.pool, config.seed, self.carriers
        respond, timed, grant = permitter.respond, permitter.timed, self._grant
        for pid, rt in runtimes.items():
            if rt.draws is not None:  # not stepped
                for req, draw in rt.draws:
                    if (resp := draw(slot)) is not None:
                        grant(slot, rt, req, resp)
                continue

            ctx, groups = rt.ctx, rt.spec.groups
            for msg in rt.strategy.plan_broadcasts(ctx):
                validate_broadcast(rt, msg, slot)
                if msg.id not in store:
                    store[msg.id] = msg
                    for pair in (msg.pair(), *msg.embedded):
                        carriers[pair] = carriers.get(pair, ()) + (msg.id,)
                transcript.broadcasts.append((slot, pid, msg.id))
                rt.hold(msg, slot)
                for oid, ort in runtimes.items():
                    if oid == pid or msg.id in ort.held:
                        continue
                    due = rule.delivery_slot(pid, oid, msg.id, slot)
                    if due is None or due > duration:
                        continue
                    if due <= slot:
                        raise ScheduleViolationError(
                            f"rule delivers {msg.id[:12]} to {oid!r} at "
                            f"slot {due}, not after its broadcast slot {slot}")
                    ort.inbox.setdefault(due, []).append(msg.id)
                    ort.held[msg.id] = due

            requests = rt.strategy.plan_requests(ctx)
            problems = enforce_request_budget(requests, timed)
            if problems:
                raise ExecutionFault(pid, slot, problems[0])
            for req in requests:
                if req.key.owner not in groups:
                    raise ExecutionFault(
                        pid, slot,
                        f"request under unowned key {req.key.label()}")
                if (resp := respond(req, pool, slot, seed)) is not None:
                    grant(slot, rt, req, resp)
            # a request no slot grants is dropped
            rt.draws = ([(req, draw) for req in requests
                         if (draw := permitter.draw(req, pool, seed))]
                        if rt.strategy.standing else None)

        # -- record confirmations (only an activation changes one) ---------
        for pid, rt in runtimes.items():
            if not rt.moved:
                continue
            rt.moved = False
            current = rt.tracker.current()
            if current != rt.last_confirmed:
                rt.last_confirmed = current
                transcript.confirmations.append(
                    (slot, pid, current[0], current[1]))

    def _grant(self, slot: int, rt: _ProcessorRuntime, req, resp) -> None:
        rt.pending.append(resp)
        self.transcript.grants.append(Grant(
            slot, rt.spec.id, req.key, tuple(sorted([m.id for m in resp.granted])),
            resp.leader.slot if resp.leader else None, req.m_digest,
            req.candidate.id if req.candidate else None))


def run_execution(config: ExecutionConfig) -> Transcript:
    """Run one execution to completion and return its transcript."""
    config.validate()
    rule = build_timing_rule(
        config.timing, schedule=config.schedule, delta=config.delta,
        seed=config.seed, roster_ids=[p.id for p in config.processors])
    run = Execution(config, rule, _describe_config(config, rule))
    for slot in range(1, config.duration + 1):
        run.step(slot)
    return run.transcript


def _describe_config(config: ExecutionConfig, rule: TimingRule) -> dict:
    return {
        "duration": config.duration,
        "delta": config.delta,
        "epsilon": config.epsilon,
        "timed": config.permitter.timed,
        "schedule": config.schedule.to_json(),
        "timing": rule.describe(),
        "pool": config.pool.describe(),
        "permitter": config.permitter.describe(),
        "confirmation": config.confirmation.describe(),
        "processors": [
            {"id": p.id, "keys": [k.label() for k in p.keys],
             "adversary": p.adversary}
            for p in sorted(config.processors, key=lambda p: p.id)
        ],
    }
