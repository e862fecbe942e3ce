"""Synchrony schedules and message timing rules.

Each timeslot is labeled synchronous or asynchronous.  The delay bound
applies through *synchronous windows*: if a message is broadcast at t1
and some interval [t2, t2 + delta] with t2 >= t1 lies inside the
duration with every slot synchronous, then every other processor must
hold the message by t2 + delta.  Messages broadcast into asynchronous
stretches may be delayed arbitrarily or never delivered at all.

A timing rule decides, per (sender, receiver, message, broadcast slot),
the delivery slot (strictly after the broadcast slot) or None for
"never".  Senders always hold their own broadcasts immediately; rules
only route to the other processors, and know nothing of the horizon: the
engine drops every delivery due after the last slot.

The shipped rule families are delay-bounded by construction wherever a
synchronous window could apply; the partition family parks cross-group
traffic until the partition interval ends, which is only admissible when
that interval is labeled asynchronous, and the custom-table family is
validated entry by entry.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from . import rng
from .errors import ConfigError, ScheduleViolationError

SYNCHRONOUS = "synchronous"
PARTIALLY_SYNCHRONOUS = "partially_synchronous"


@dataclass
class SynchronySchedule:
    """Per-slot synchrony labels over a duration of ``duration`` slots."""

    duration: int
    setting: str = SYNCHRONOUS
    async_intervals: tuple[tuple[int, int], ...] = ()
    _async_slots: set[int] = field(init=False, default_factory=set)
    _window_cache: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        if self.duration < 1:
            raise ConfigError("duration must be at least one slot")
        if self.setting not in (SYNCHRONOUS, PARTIALLY_SYNCHRONOUS):
            raise ConfigError(f"unknown synchrony setting {self.setting!r}")
        if self.setting == SYNCHRONOUS and self.async_intervals:
            raise ConfigError("synchronous setting admits no asynchronous slots")
        for lo, hi in self.async_intervals:
            if not (1 <= lo <= hi <= self.duration):
                raise ConfigError(
                    f"asynchronous interval [{lo}, {hi}] outside the duration"
                )
            self._async_slots.update(range(lo, hi + 1))

    @classmethod
    def fully_synchronous(cls, duration: int) -> "SynchronySchedule":
        return cls(duration=duration)

    @classmethod
    def fully_asynchronous(cls, duration: int) -> "SynchronySchedule":
        return cls(duration=duration, setting=PARTIALLY_SYNCHRONOUS,
                   async_intervals=((1, duration),))

    def is_sync(self, slot: int) -> bool:
        return slot not in self._async_slots

    def sync_window_deadline(self, slot: int, delta: int) -> int | None:
        """Earliest t2 + delta over synchronous windows starting at or
        after ``slot``; None when no such window fits the duration."""
        starts = self._window_starts(delta)
        i = bisect.bisect_left(starts, slot)
        return starts[i] + delta if i < len(starts) else None

    def _window_starts(self, delta: int) -> list[int]:
        starts = self._window_cache.get(delta)
        if starts is None:
            starts = []
            run = 0  # consecutive synchronous slots ending at t
            for t in range(1, self.duration + 1):
                run = run + 1 if self.is_sync(t) else 0
                if run >= delta + 1:
                    starts.append(t - delta)
            self._window_cache[delta] = starts
        return starts

    def to_json(self) -> dict:
        return {
            "duration": self.duration,
            "setting": self.setting,
            "async_intervals": [list(iv) for iv in self.async_intervals],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SynchronySchedule":
        return cls(
            duration=int(data["duration"]),
            setting=data["setting"],
            async_intervals=tuple(
                (int(lo), int(hi)) for lo, hi in data.get("async_intervals", [])
            ),
        )


# -- timing rules --------------------------------------------------------------


class TimingRule:
    """Base interface: map (sender, receiver, msg_id, slot) to delivery."""

    policy = "abstract"

    def delivery_slot(self, sender: str, receiver: str, msg_id: str,
                      slot: int) -> int | None:
        raise NotImplementedError

    def describe(self) -> dict:
        return {"policy": self.policy}


class UniformDelayRule(TimingRule):
    policy = "uniform_delay"

    def __init__(self, delay: int):
        if delay < 1:
            raise ConfigError("delivery delay must be at least 1 slot")
        self.delay = delay

    def delivery_slot(self, sender, receiver, msg_id, slot):
        return slot + self.delay

    def describe(self):
        return {"policy": self.policy, "delay": self.delay}


class PerEdgeRandomRule(TimingRule):
    """Independent uniform delay in [1, max_delay] per (edge, message)."""

    policy = "per_edge_random"

    def __init__(self, max_delay: int, seed: int):
        if max_delay < 1:
            raise ConfigError("maximum delay must be at least 1 slot")
        self.max_delay = max_delay
        self.seed = seed

    def delivery_slot(self, sender, receiver, msg_id, slot):
        return slot + rng.uniform_int(self.seed, 1, self.max_delay,
                                      "delay", sender, receiver, msg_id)

    def describe(self):
        return {"policy": self.policy, "max_delay": self.max_delay}


class PartitionRule(TimingRule):
    """Cross-group traffic is parked during the partition interval.

    Within a group the base rule applies untouched.  A cross-group
    delivery that would land inside [start, end] is deferred to end + 1,
    which the engine drops when the interval runs to the last slot.
    """

    policy = "partition"

    def __init__(self, base: TimingRule, groups: list[list[str]],
                 interval: tuple[int, int]):
        self.base = base
        self.groups = [list(g) for g in groups]
        self.interval = (int(interval[0]), int(interval[1]))
        self._group_of = {}
        for gi, members in enumerate(self.groups):
            for pid in members:
                if pid in self._group_of:
                    raise ConfigError(f"processor {pid!r} listed in two groups")
                self._group_of[pid] = gi

    def delivery_slot(self, sender, receiver, msg_id, slot):
        due = self.base.delivery_slot(sender, receiver, msg_id, slot)
        if due is None:
            return None
        start, end = self.interval
        if self._group_of.get(sender) == self._group_of.get(receiver):
            return due
        return end + 1 if start <= due <= end else due

    def describe(self):
        return {"policy": self.policy, "interval": list(self.interval),
                "groups": [list(g) for g in self.groups],
                "base": self.base.describe()}


class CustomTableRule(TimingRule):
    """Explicit per-(receiver, message) deliveries over a base rule.

    Receivers listed as isolated get nothing except their table entries —
    the shape used to hand chosen message sets to observer processors.
    """

    policy = "custom"

    def __init__(self, base: TimingRule, entries: dict[tuple[str, str], int | None],
                 isolated_receivers: set[str] = frozenset()):
        self.base = base
        self.entries = dict(entries)
        self.isolated = set(isolated_receivers)

    def delivery_slot(self, sender, receiver, msg_id, slot):
        if (receiver, msg_id) in self.entries:
            due = self.entries[(receiver, msg_id)]
            if due is not None and due <= slot:
                raise ScheduleViolationError(
                    f"custom entry delivers {msg_id} at {due}, "
                    f"not after its broadcast slot {slot}"
                )
            return due
        if receiver in self.isolated:
            return None
        return self.base.delivery_slot(sender, receiver, msg_id, slot)

    def describe(self):
        return {"policy": self.policy, "entries": len(self.entries),
                "isolated": sorted(self.isolated), "base": self.base.describe()}


def build_timing_rule(spec: dict, *, schedule: SynchronySchedule, delta: int,
                      seed: int, roster_ids: list[str]) -> TimingRule:
    """Construct a timing rule from its config section and validate it
    against the synchrony schedule."""
    spec = dict(spec)
    policy = spec.pop("policy", "uniform_delay")
    if policy == "uniform_delay":
        delay = int(spec.pop("delay", 1))
        rule: TimingRule = UniformDelayRule(delay)
        if delay > delta and schedule.sync_window_deadline(1, delta) is not None:
            raise ScheduleViolationError(
                f"uniform delay {delay} exceeds the bound {delta} while the "
                f"schedule contains synchronous windows"
            )
    elif policy == "per_edge_random":
        max_delay = int(spec.pop("max_delay", delta))
        if max_delay > delta and schedule.sync_window_deadline(1, delta) is not None:
            raise ScheduleViolationError(
                f"random delays up to {max_delay} exceed the bound {delta} "
                f"while the schedule contains synchronous windows"
            )
        rule = PerEdgeRandomRule(max_delay, seed)
    elif policy == "partition":
        missing = sorted({"interval", "groups"} - spec.keys())
        if missing:
            raise ConfigError(f"partition timing needs {missing}")
        interval = spec.pop("interval")
        if not (isinstance(interval, (list, tuple)) and len(interval) == 2
                and all(isinstance(t, int) for t in interval)):
            raise ConfigError(f"partition interval must be two slots "
                              f"[first, last], got {interval!r}")
        if not 1 <= interval[0] <= interval[1] <= schedule.duration:
            raise ConfigError("partition interval outside the duration")
        groups = spec.pop("groups")
        base = build_timing_rule(
            spec.pop("base", {"policy": "uniform_delay", "delay": 1}),
            schedule=schedule, delta=delta, seed=seed, roster_ids=roster_ids)
        listed = {p for g in groups for p in g}
        missing = set(roster_ids) - listed
        if missing:
            raise ConfigError(f"partition groups omit processors {sorted(missing)}")
        for t in range(interval[0], interval[1] + 1):
            if schedule.is_sync(t):
                raise ScheduleViolationError(
                    f"partition interval covers synchronous slot {t}; label it "
                    f"asynchronous or shrink the interval"
                )
        rule = PartitionRule(base, groups, interval)
    elif policy == "custom":
        isolated = set(spec.pop("isolated_receivers", []))
        # the base rule routes nothing to an isolated receiver
        base = build_timing_rule(
            spec.pop("base", {"policy": "uniform_delay", "delay": 1}),
            schedule=schedule, delta=delta, seed=seed,
            roster_ids=[p for p in roster_ids if p not in isolated])
        entries = {}
        for item in spec.pop("entries", []):
            if not (isinstance(item, dict)
                    and item.keys() >= {"receiver", "msg_id", "slot"}):
                raise ConfigError(f"a custom timing entry needs receiver, "
                                  f"msg_id and slot, got {item!r}")
            receiver, msg_id, due = item["receiver"], item["msg_id"], item["slot"]
            entries[(receiver, msg_id)] = None if due is None else int(due)
        if isolated and schedule.sync_window_deadline(1, delta) is not None:
            raise ScheduleViolationError(
                "isolating receivers is only admissible when the schedule has "
                "no synchronous window at all"
            )
        rule = CustomTableRule(base, entries, isolated)
    else:
        raise ConfigError(f"unknown timing policy {policy!r}")
    if spec:
        raise ConfigError(f"unknown timing options {sorted(spec)}")
    return rule


@dataclass(frozen=True)
class DeltaViolation:
    msg_id: str
    sender: str
    receiver: str
    broadcast_slot: int
    deadline: int
    delivered_slot: int | None


def check_delta_conformance(broadcasts, deliveries, schedule: SynchronySchedule,
                            delta: int, roster_ids) -> list[DeltaViolation]:
    """Audit a run's deliveries against the synchrony bound.

    ``broadcasts``: (sender, msg_id, slot) triples.  ``deliveries``:
    mapping (receiver, msg_id) -> delivery slot.  For every broadcast and
    receiver, if any synchronous window [t2, t2+delta] with t2 at or
    after the broadcast fits in the duration, the message must be held by
    the earliest such window's end.
    """
    deadline_cache: dict[int, int | None] = {}
    violations = []
    for sender, msg_id, sent_at in broadcasts:
        if sent_at not in deadline_cache:
            deadline_cache[sent_at] = schedule.sync_window_deadline(sent_at, delta)
        deadline = deadline_cache[sent_at]
        if deadline is None:
            continue
        for receiver in roster_ids:
            if receiver == sender:
                continue
            got = deliveries.get((receiver, msg_id))
            if got is None or got > deadline:
                violations.append(DeltaViolation(
                    msg_id=msg_id, sender=sender, receiver=receiver,
                    broadcast_slot=sent_at, deadline=deadline,
                    delivered_slot=got,
                ))
    return violations
