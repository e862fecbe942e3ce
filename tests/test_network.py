"""Delivery rules, synchrony schedules, and the conformance audit."""

import pytest

from permitsim.engine import run_execution
from permitsim.errors import ConfigError, ScheduleViolationError
from permitsim.network import (PARTIALLY_SYNCHRONOUS, CustomTableRule,
                               PartitionRule, PerEdgeRandomRule,
                               SynchronySchedule, UniformDelayRule,
                               build_timing_rule, check_delta_conformance)

from conftest import work_config


def partial(duration, *intervals):
    return SynchronySchedule(duration=duration,
                             setting=PARTIALLY_SYNCHRONOUS,
                             async_intervals=tuple(intervals))


class TestSchedule:
    def test_fully_synchronous(self):
        sched = SynchronySchedule.fully_synchronous(10)
        assert sched.is_sync(1) and sched.is_sync(10)
        assert sched.sync_window_deadline(1, 2) == 3

    def test_fully_asynchronous_has_no_deadline(self):
        sched = SynchronySchedule.fully_asynchronous(10)
        assert not sched.is_sync(5)
        assert sched.sync_window_deadline(1, 2) is None

    def test_window_deadline_slides_past_async_gap(self):
        sched = partial(10, (4, 6))
        assert sched.sync_window_deadline(1, 2) == 3
        # from slot 2 on, no 3-slot synchronous window fits before the
        # gap; the earliest one starts at slot 7
        assert sched.sync_window_deadline(2, 2) == 9
        assert sched.sync_window_deadline(7, 2) == 9
        assert sched.sync_window_deadline(9, 2) is None

    def test_interval_bounds_validated(self):
        with pytest.raises(ConfigError):
            partial(10, (0, 3))
        with pytest.raises(ConfigError):
            partial(10, (3, 11))

    def test_json_round_trip(self):
        sched = partial(8, (2, 3))
        back = SynchronySchedule.from_json(sched.to_json())
        assert [back.is_sync(t) for t in range(1, 9)] == \
               [sched.is_sync(t) for t in range(1, 9)]


class TestDeliveryRules:
    def test_uniform_delay(self):
        rule = UniformDelayRule(2, duration=10)
        assert rule.delivery_slot("a", "b", "m1", 3) == 5

    def test_uniform_delay_must_be_positive(self):
        with pytest.raises(ConfigError):
            UniformDelayRule(0, duration=10)

    def test_per_edge_random_within_bounds_and_deterministic(self):
        rule = PerEdgeRandomRule(3, duration=50, seed=9)
        slots = [rule.delivery_slot("a", "b", f"m{i}", 5) for i in range(60)]
        assert all(6 <= s <= 8 for s in slots)
        assert len(set(slots)) > 1  # actually random across messages
        again = PerEdgeRandomRule(3, duration=50, seed=9)
        assert slots == [again.delivery_slot("a", "b", f"m{i}", 5)
                         for i in range(60)]

    def test_per_edge_delay_ignores_roster_changes(self):
        # delays are a function of (sender, receiver, message), so adding
        # unrelated processors to a run cannot move anyone's deliveries
        rule = PerEdgeRandomRule(3, duration=50, seed=9)
        before = rule.delivery_slot("a", "b", "m", 5)
        rule.delivery_slot("a", "zz", "m", 5)
        assert rule.delivery_slot("a", "b", "m", 5) == before

    def test_partition_defers_cross_group_delivery(self):
        base = UniformDelayRule(1, duration=20)
        rule = PartitionRule(base, groups=[["a", "b"], ["c"]],
                             interval=(5, 10), duration=20)
        assert rule.delivery_slot("a", "b", "m", 6) == 7   # same group
        assert rule.delivery_slot("a", "c", "m", 6) == 11  # parked to end+1
        assert rule.delivery_slot("a", "c", "m", 3) == 4   # before the cut

    def test_partition_to_the_horizon_drops_messages(self):
        base = UniformDelayRule(1, duration=10)
        rule = PartitionRule(base, groups=[["a"], ["b"]],
                             interval=(5, 10), duration=10)
        assert rule.delivery_slot("a", "b", "m", 7) is None

    def test_custom_table_overrides(self):
        base = UniformDelayRule(1, duration=20)
        rule = CustomTableRule(base, entries={("b", "m"): 9},
                               isolated_receivers={"z"}, duration=20)
        assert rule.delivery_slot("a", "b", "m", 2) == 9
        assert rule.delivery_slot("a", "b", "other", 2) == 3
        assert rule.delivery_slot("a", "z", "other", 2) is None

    def test_custom_table_rejects_time_travel(self):
        base = UniformDelayRule(1, duration=20)
        rule = CustomTableRule(base, entries={("b", "m"): 4}, duration=20)
        with pytest.raises(ScheduleViolationError):
            rule.delivery_slot("a", "b", "m", 4)


class TestBuildTimingRule:
    def build(self, spec, duration=20, delta=2, schedule=None):
        sched = schedule or SynchronySchedule.fully_synchronous(duration)
        return build_timing_rule(spec, schedule=sched, delta=delta, seed=1,
                                 roster_ids=["a", "b", "c"])

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            self.build({"policy": "teleport"})

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigError):
            self.build({"policy": "uniform_delay", "dlay": 1})

    def test_delay_beyond_delta_needs_async_schedule(self):
        with pytest.raises(ScheduleViolationError):
            self.build({"policy": "uniform_delay", "delay": 5})
        rule = self.build({"policy": "uniform_delay", "delay": 5},
                          schedule=SynchronySchedule.fully_asynchronous(20))
        assert rule.delivery_slot("a", "b", "m", 1) == 6

    def test_partition_interval_must_be_asynchronous(self):
        spec = {"policy": "partition", "groups": [["a"], ["b", "c"]],
                "interval": [3, 6]}
        with pytest.raises(ScheduleViolationError):
            self.build(spec)
        rule = self.build(dict(spec), schedule=partial(20, (3, 6)))
        assert rule.delivery_slot("a", "b", "m", 4) == 7  # deferred past 6

    def test_partition_groups_must_cover_roster(self):
        with pytest.raises(ConfigError):
            self.build({"policy": "partition", "groups": [["a"], ["b"]],
                        "interval": [3, 6]},
                       schedule=partial(20, (3, 6)))

    def test_isolation_needs_fully_async_schedule(self):
        spec = {"policy": "custom", "isolated_receivers": ["c"]}
        with pytest.raises(ScheduleViolationError):
            self.build(dict(spec))
        rule = self.build(dict(spec),
                          schedule=SynchronySchedule.fully_asynchronous(20))
        assert rule.delivery_slot("a", "c", "m", 1) is None
        assert rule.delivery_slot("a", "b", "m", 1) == 2


class TestDeliverMessages:
    def test_rule_may_not_deliver_at_broadcast_slot(self):
        class Instant(UniformDelayRule):
            def delivery_slot(self, *a):
                return a[3]

        config = work_config(duration=60, rate=1)
        config.timing = Instant(1, config.duration)
        with pytest.raises(ScheduleViolationError, match="not after"):
            run_execution(config)


class TestDeltaConformance:
    def run_case(self, deliveries, delta=2, duration=8):
        sched = SynchronySchedule.fully_synchronous(duration)
        broadcasts = [("a", "m", 1)]
        return check_delta_conformance(broadcasts, deliveries, sched, delta,
                                       roster_ids=["a", "b"])

    def test_on_time_delivery_passes(self):
        assert self.run_case({("b", "m"): 3}) == []

    def test_late_delivery_flagged(self):
        violations = self.run_case({("b", "m"): 4})
        assert violations and violations[0].receiver == "b"
        assert violations[0].deadline == 3

    def test_missing_delivery_flagged(self):
        assert self.run_case({})

    def test_async_schedule_tolerates_anything(self):
        sched = SynchronySchedule.fully_asynchronous(8)
        assert check_delta_conformance([("a", "m", 1)], {}, sched, 2,
                                       roster_ids=["a", "b"]) == []
