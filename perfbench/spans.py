"""Spans at permitsim's layer boundaries, recorded from outside the program.

A ``Tracer`` wraps the public functions and methods of each permitsim
module.  Module-level functions are replaced in every permitsim module
that holds them, because callers look names up where they imported them
(``scenarios.run_execution``, ``protocols.make_block``, ...); methods are
replaced on the classes that define them.  Each call records one span
(name, parent, start, end) in flat arrays kept in memory; ``write``
saves them when the run ends.  ``LeaderGrant.covers`` runs millions of
times on the stake lane, so it is counted, not spanned.

A span's self time is its duration minus the durations of its child
spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

HOOKS = ("on_receive", "plan_broadcasts", "plan_requests")


def boundaries():
    """Span name -> the functions, or (class, method) pairs, it wraps."""
    from permitsim import (adversary, analysis, blocktree, engine, experiment,
                           messages, network, permitter, protocols,
                           resource_pool, rng)

    pools = (resource_pool.ResourcePool, resource_pool.ConstantBalancePool,
             resource_pool.StakePool, resource_pool.ScriptedPool)
    rules = (network.UniformDelayRule, network.PerEdgeRandomRule,
             network.PartitionRule, network.CustomTableRule)

    def defined(classes, methods):
        return [(c, m) for c in classes for m in methods if m in vars(c)]

    return {
        "engine.run_execution": [engine.run_execution],
        "engine.validate_broadcast": [engine.validate_broadcast],
        "permitter.respond": defined(
            (permitter.WorkPermitter, permitter.StakePermitter), ("respond",)),
        "rng.substream_u64": [rng.substream_u64],
        "resource_pool.balance_of": defined(pools, ("balance_of",)),
        "resource_pool.total": defined(pools, ("total",)),
        "messages.make_block": [messages.make_block],
        "messages.body_digest": [(messages.Message, "body_digest")],
        "blocktree.index_add": [(blocktree.BlockIndex, "add")],
        "blocktree.view_add": [(blocktree.BlockSetView, "add")],
        "blocktree.ancestor_at_height": [
            (blocktree.BlockIndex, "ancestor_at_height")],
        "network.delivery_slot": defined(rules, ("delivery_slot",)),
        "protocols.strategy": defined(
            (protocols.Strategy, protocols.HonestWorkStrategy,
             protocols.HonestStakeStrategy), HOOKS),
        "protocols.tracker": defined(
            (protocols._KDeepTracker, protocols._DensityTracker),
            ("on_block", "current")),
        "adversary.strategy": defined(
            (adversary.PrivateForkStrategy, adversary.StakeWithholdStrategy,
             adversary.SimulationAttackerStrategy), HOOKS),
        "analysis.verify_transcript_invariants": [
            analysis.verify_transcript_invariants],
        "analysis.check_security": [analysis.check_security],
        "analysis.measure_liveness": [analysis.measure_liveness],
        "transcript.to_bytes": [(engine.Transcript, "to_bytes")],
        "transcript.from_lines": [(engine.Transcript, "from_lines")],
        "experiment.run_experiment": [experiment.run_experiment],
    }


def counted():
    from permitsim import permitter

    return {"permitter.covers": [(permitter.LeaderGrant, "covers")]}


class Tracer:
    def __init__(self):
        self.ids: dict[str, int] = {}  # span name -> id, in order of first use
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters: dict[str, list[int]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        nid = self.ids.setdefault(name, len(self.ids))
        add_name, add_parent = self.span_name.append, self.span_parent.append
        starts, ends, stack = self.span_start, self.span_end, self.stack

        def traced(*args, **kwargs):
            i = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()

        return traced

    def _count(self, name: str, fn):
        cell = self.counters.setdefault(name, [0])

        def counted_call(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted_call

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def _wrap_all(self, table: dict, make) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "permitsim" or n.startswith("permitsim.")]
        for name, targets in table.items():
            for target in targets:
                if isinstance(target, tuple):
                    cls, attr = target
                    original = vars(cls)[attr]
                    if isinstance(original, classmethod):
                        wrapped = classmethod(make(name, original.__func__))
                    else:
                        wrapped = make(name, original)
                    self._patch(cls, attr, wrapped)
                    continue
                wrapped = make(name, target)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is target:
                            self._patch(module, attr, wrapped)

    def install(self) -> None:
        self._wrap_all(boundaries(), self._span)
        self._wrap_all(counted(), self._count)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """A point between rounds: span count and counter values."""
        return len(self.span_start), {n: c[0] for n, c in self.counters.items()}

    def aggregate(self, lo: int, hi: int) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds) over spans lo..hi-1."""
        starts, ends = self.span_start, self.span_end
        parents, names = self.span_parent, self.span_name
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = parents[i]
            if p >= lo:
                child[p - lo] += ends[i] - starts[i]
        calls = [0] * len(self.ids)
        self_s = [0.0] * len(self.ids)
        for i in range(lo, hi):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - child[i - lo]
        return {name: (calls[nid], self_s[nid])
                for name, nid in self.ids.items()}

    def write(self, path) -> None:
        """One JSON line (span names and layout), then the four arrays'
        raw bytes in native byte order: name ids, parent span indices
        (-1 for none), start and end times from ``time.perf_counter``."""
        head = {"names": list(self.ids), "spans": len(self.span_start),
                "arrays": [["name", self.span_name.typecode],
                           ["parent", self.span_parent.typecode],
                           ["start", self.span_start.typecode],
                           ["end", self.span_end.typecode]],
                "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
