"""Transcript analysis: liveness, security, certificates, recalibration.

Everything here consumes finished transcripts (in-memory or reloaded)
and produces plain reports.  Nothing mutates a transcript.

Liveness is measured through two per-slot series: the prefix maximum of
any processor's confirmed-ledger length, and the per-slot minimum.  The
run is uniformly live with parameter ``ell`` exactly when every slot's
minimum strictly exceeds the prefix maximum ``ell`` slots earlier — both
series are monotone consequences of confirmed-set growth, which is why
checking only these minimal pairs is complete.

Security is checked on confirmed-tip change-points: all confirmed tips
ever reported, by anyone, must lie on one chain.  The report buckets
failures into per-processor consistency (a processor's own confirmed
chain must only ever extend), same-slot agreement across processors, and
the global any-pair variant.

A block is *certifiable* in a message set when some subset of the set
confirms a chain containing it.  The search replays the set once through
the rule's own tracker and reads every subset's answer from it; the test
suite cross-checks it against an exhaustive subset enumeration on small
ledgers.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import pairwise
from statistics import NormalDist

from .blocktree import BlockIndex, compatible
from .engine import Transcript
from .errors import ConfigError, SettingMismatchError
from .network import SynchronySchedule, check_delta_conformance
from .protocols import (ConfirmationRule, DensityCertificateRule, KDeepRule,
                        ProductionProfile, density_threshold, interval_length_r)

# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------


@dataclass
class LivenessReport:
    """Confirmed-ledger growth measurements for one run."""

    duration: int
    min_len: list[int]         # per slot: smallest confirmed length, any processor
    prefix_max_len: list[int]  # per slot: largest confirmed length seen so far
    minimal_uniform_ell: int   # smallest ell with uniform liveness (duration = never)

    def satisfies(self, ell: int) -> bool:
        return ell >= self.minimal_uniform_ell


def measure_liveness(transcript: Transcript,
                     processors: list[str] | None = None) -> LivenessReport:
    """Growth series over the given processors (default: honest roster).

    One pass over the confirmation change points, which the engine writes
    in slot order: between two change points every processor's confirmed
    length holds, and so do both series.
    """
    if processors is None:
        processors = [p for p in transcript.roster_ids
                      if p not in transcript.adversary_ids]
    if not processors:
        raise ConfigError("liveness needs at least one processor to watch")
    duration = transcript.duration
    current = dict.fromkeys(processors, 0)  # confirmed length per processor
    min_len: list[int] = []
    prefix_max_len: list[int] = []
    high = 0
    minimal = 0

    # smallest ell such that for all t2: min[t2] > prefix_max[t2 - ell].
    # prefix_max is monotone, so the t with prefix_max[t] < v are a prefix
    # of the slots and t0, the rightmost of them up to t2 (0 when none), is
    # a bisection; t2 - t0 grows while min[t2] holds, so only the last
    # slot before each change point needs it.
    def settle(through: int) -> None:
        nonlocal high, minimal
        low = min(current.values())
        high = max(high, *current.values())
        gap = through - len(min_len)
        min_len.extend([low] * gap)
        prefix_max_len.extend([high] * gap)
        minimal = max(minimal, through - bisect_left(
            prefix_max_len, low, 0, through))

    for slot, proc, _tip, ln in transcript.confirmations:
        if slot > duration:
            break
        if proc not in current:
            continue
        if slot > len(min_len) + 1:
            settle(slot - 1)
        current[proc] = ln
    if len(min_len) < duration:
        settle(duration)
    return LivenessReport(duration=duration, min_len=min_len,
                          prefix_max_len=prefix_max_len,
                          minimal_uniform_ell=minimal)


# ---------------------------------------------------------------------------
# security
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViolationRecord:
    kind: str
    slot_a: int
    proc_a: str
    tip_a: str
    slot_b: int
    proc_b: str
    tip_b: str


@dataclass
class SecurityReport:
    per_processor_ok: bool
    same_slot_ok: bool
    uniform_ok: bool
    violations: list[ViolationRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.uniform_ok


def check_security(transcript: Transcript,
                   processors: list[str] | None = None) -> SecurityReport:
    """All confirmed tips ever reported must lie on a single chain."""
    if processors is None:
        processors = [p for p in transcript.roster_ids
                      if p not in transcript.adversary_ids]
    watch = set(processors)
    index = transcript.index
    points = [(slot, proc, tip, ln)
              for slot, proc, tip, ln in transcript.confirmations
              if proc in watch and tip is not None]

    violations: list[ViolationRecord] = []
    per_processor_ok = True
    last_by_proc: dict[str, tuple[int, str, int]] = {}
    for slot, proc, tip, ln in points:
        prev = last_by_proc.get(proc)
        if prev is not None:
            pslot, ptip, plen = prev
            if ln < plen or not compatible(ptip, tip, index):
                per_processor_ok = False
                violations.append(ViolationRecord(
                    "processor_rollback", pslot, proc, ptip, slot, proc, tip))
        last_by_proc[proc] = (slot, tip, ln)

    # global single-chain check on distinct tips, cheapest first
    first_seen: dict[str, tuple[int, str]] = {}
    for slot, proc, tip, _ln in points:
        first_seen.setdefault(tip, (slot, proc))
    ordered = sorted(first_seen, key=lambda t: (index.height(t), t))
    uniform_ok = True
    for a, b in zip(ordered, ordered[1:]):
        if not compatible(a, b, index):
            uniform_ok = False
            sa, pa = first_seen[a]
            sb, pb = first_seen[b]
            violations.append(ViolationRecord(
                "incompatible_confirmations", sa, pa, a, sb, pb, b))

    # same-slot agreement, only when needed: tips move only at change
    # points, in slot order, so check each slot's last one
    same_slot_ok = True
    if not uniform_ok:
        tips = dict.fromkeys(processors)
        changes = [(slot, proc, tip)
                   for slot, proc, tip, _ln in transcript.confirmations
                   if proc in tips and slot <= transcript.duration]
        for n, (slot, proc, tip) in enumerate(changes):
            tips[proc] = tip
            if n + 1 < len(changes) and changes[n + 1][0] == slot:
                continue
            held = [(p, tips[p]) for p in processors if tips[p] is not None]
            clash = next(((a, b) for i, a in enumerate(held) for b in held[i + 1:]
                          if not compatible(a[1], b[1], index)), None)
            if clash is not None:
                same_slot_ok = False
                (pa, ta), (pb, tb) = clash
                violations.append(ViolationRecord(
                    "same_slot_disagreement", slot, pa, ta, slot, pb, tb))
                break

    return SecurityReport(per_processor_ok=per_processor_ok,
                          same_slot_ok=same_slot_ok,
                          uniform_ok=uniform_ok and per_processor_ok,
                          violations=violations)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def certifiable_blocks(msg_ids, rule: ConfirmationRule,
                       index: BlockIndex) -> set[str]:
    """Blocks B with a confirming subset of the message set under ``rule``.

    One replay of the set (genesis added, as every message state holds
    it) through the rule's tracker answers for every subset: under k-deep
    a subset confirms the k-truncated chain of any block active in it,
    and under density certificates the chain of any witness the set
    holds.
    """
    present = set(msg_ids)
    present.add(index.genesis_id)
    tracker = rule.track(present, index)
    if isinstance(rule, KDeepRule):
        view = tracker.view
        cuts = [index.ancestor_at_height(b, max(0, index.height(b) - rule.k))
                for b in present if view.is_active(b)]
    elif isinstance(rule, DensityCertificateRule):
        cuts = [leaf for (_, leaf), count in tracker.counts.items()
                if count >= rule.threshold]
    else:
        raise ConfigError(f"no certificate search for rule {rule.name!r}")
    certified: set[str] = set()
    for b in cuts:
        while b is not None and b not in certified:  # the chain, once
            certified.add(b)
            b = index.parent(b)
    return certified


# ---------------------------------------------------------------------------
# transcript invariants
# ---------------------------------------------------------------------------


def _keep_earliest(firsts: dict, key, slot: int) -> None:
    """Record ``slot`` for ``key`` unless an earlier slot is recorded."""
    if firsts.get(key, slot) >= slot:
        firsts[key] = slot


def verify_transcript_invariants(transcript: Transcript) -> list[str]:
    """Audit a transcript against the execution model; returns problems."""
    problems: list[str] = []
    index = transcript.index
    store = transcript.store
    genesis_id = transcript.genesis.id

    # the horizon: the header's, the schedule's, and every record's slot;
    # each kind in slot order, which the analyses rely on
    duration = transcript.duration
    schedule = SynchronySchedule.from_json(transcript.header["schedule"])
    if duration != schedule.duration:
        problems.append(f"header duration {duration} differs from the "
                        f"schedule's {schedule.duration}")
    for kind, slots in (
            ("broadcast", [s for s, _, _ in transcript.broadcasts]),
            ("delivery", [s for s, _, _ in transcript.deliveries]),
            ("grant", [g.slot for g in transcript.grants]),
            ("confirm", [s for s, _, _, _ in transcript.confirmations])):
        outside = [s for s in slots if not 1 <= s <= duration]
        if outside:
            problems.append(f"{len(outside)} {kind} record(s) outside slots "
                            f"1..{duration}, the first at slot {outside[0]}")
        back = next(((a, b) for a, b in pairwise(slots) if b < a), None)
        if back is not None:
            problems.append(f"a {kind} record at slot {back[1]} follows one "
                            f"at slot {back[0]}")

    first_broadcast: dict[str, int] = {}
    for slot, sender, mid in transcript.broadcasts:
        first_broadcast.setdefault(mid, slot)
        if mid not in store:
            problems.append(f"broadcast of unknown message {mid} at slot {slot}")

    # parents precede children on the wire
    for mid, bslot in first_broadcast.items():
        msg = store.get(mid)
        if msg is not None and msg.is_block:
            parent = msg.parent
            if parent != genesis_id and first_broadcast.get(parent, 10**9) > bslot:
                problems.append(
                    f"block {mid[:12]} broadcast at {bslot} before its parent")

    # deliveries: unique per (receiver, message), strictly after a broadcast
    seen_pairs: set[tuple[str, str]] = set()
    for slot, receiver, mid in transcript.deliveries:
        pair = (receiver, mid)
        if pair in seen_pairs:
            problems.append(f"{receiver} received {mid[:12]} twice")
        seen_pairs.add(pair)
        sent = first_broadcast.get(mid)
        if sent is None:
            problems.append(f"delivery of never-broadcast {mid[:12]} at {slot}")
        elif slot <= sent:
            problems.append(
                f"{mid[:12]} delivered to {receiver} at {slot}, "
                f"not after broadcast slot {sent}")

    # permission soundness: every broadcast is covered.  Each map holds
    # the earliest grant, the one any later broadcast may rely on.
    granted_at: dict[tuple[str, str], int] = {}  # (proc, message)
    leader_at: dict[tuple, int] = {}  # (proc, key, slot)
    for g in transcript.grants:
        for mid in g.granted:
            _keep_earliest(granted_at, (g.proc, mid), g.slot)
        if g.leader_slot is not None:
            _keep_earliest(leader_at, (g.proc, g.key, g.leader_slot), g.slot)
    held_at: dict[tuple[str, str], int] = {}  # (proc, message) it holds
    for slot, receiver, mid in transcript.deliveries:
        _keep_earliest(held_at, (receiver, mid), slot)

    for slot, sender, mid in transcript.broadcasts:
        msg = store.get(mid)
        if msg is None:
            continue
        pair = (sender, mid)
        granted = granted_at.get(pair, slot)
        if msg.is_block and msg.timestamp is not None:
            granted = min(granted, leader_at.get(
                (sender, msg.signer, msg.timestamp), slot))
        # held: delivered to the sender, or sent by it, by this slot
        held = held_at.get(pair, slot + 1) <= slot
        if not held and granted >= slot:
            problems.append(
                f"{sender} broadcast unpermitted message {mid[:12]} at {slot}")
        _keep_earliest(held_at, pair, slot)

    # confirmed tips: broadcast blocks (or genesis), consistent per
    # processor; no tip confirms nothing
    last_by_proc: dict[str, tuple[str, int]] = {}
    for slot, proc, tip, ln in transcript.confirmations:
        if tip is None:
            if ln != 0:
                problems.append(f"{proc} confirmed length {ln} with no tip "
                                f"at slot {slot}")
            continue
        if tip != genesis_id:
            sent = first_broadcast.get(tip)
            if sent is None:
                problems.append(f"{proc} confirmed never-broadcast {tip[:12]}")
                continue
            if tip not in index:
                problems.append(f"{proc} confirmed {tip[:12]}, which is not "
                                f"a block, at slot {slot}")
                continue
            if sent > slot:
                problems.append(
                    f"{proc} confirmed {tip[:12]} at {slot} before its "
                    f"broadcast at {sent}")
        if index.height(tip) + 1 != ln:
            problems.append(
                f"confirmed length {ln} disagrees with tip height for {proc}")
        prev = last_by_proc.get(proc)
        if prev is not None:
            ptip, plen = prev
            if ln < plen:
                problems.append(f"{proc} confirmed ledger shrank at slot {slot}")
        last_by_proc[proc] = (tip, ln)

    # synchrony-bound conformance
    delta = int(transcript.header["delta"])
    triples = [(sender, mid, slot) for slot, sender, mid in transcript.broadcasts]
    held = transcript.delivery_map()
    for v in check_delta_conformance(triples, held, schedule, delta,
                                     transcript.roster_ids):
        problems.append(
            f"{v.msg_id[:12]} from {v.sender} missed the synchrony deadline "
            f"{v.deadline} at {v.receiver} (got {v.delivered_slot})")

    return problems


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ConfigError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ConfigError("successes outside [0, trials]")
    z = NormalDist().inv_cdf(1 - (1 - confidence) / 2)
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# error-budget recalibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EllTable:
    """Closed-form growth of the liveness parameter as the budget shrinks.

    Forms: ``log`` — a * ln(1/eps) + b; ``power`` — a * eps^(-c) + b;
    ``inverse`` — a / eps + b.
    """

    form: str
    a: float
    b: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        if self.form not in ("log", "power", "inverse"):
            raise ConfigError(f"unknown ell-table form {self.form!r}")
        if self.a <= 0:
            raise ConfigError("ell-table coefficient must be positive")

    def ell(self, eps: float) -> int:
        if not 0 < eps < 1:
            raise ConfigError("error budget must lie in (0, 1)")
        if self.form == "log":
            value = self.a * math.log(1 / eps) + self.b
        elif self.form == "power":
            value = self.a * eps ** (-self.c) + self.b
        else:
            value = self.a / eps + self.b
        return max(1, math.ceil(value))


@dataclass(frozen=True)
class RecalibrationPlan:
    """Split one error budget across every slot pair of a longer run.

    A protocol that is live and secure up to ``eps1`` for runs of length
    ``d1_size`` stays live and secure up to ``eps0`` over any window of
    ``n`` slots: each of at most 2n relevant events gets eps0 / (2n) of
    the budget, and the run must outlast the window by the recalibrated
    liveness parameter.
    """

    eps0: float
    n: int
    eps1: float
    ell1: int
    d1_size: int


def recalibrate_union_bound(eps0: float, n: int, table: EllTable) -> RecalibrationPlan:
    if not 0 < eps0 < 1:
        raise ConfigError("error budget must lie in (0, 1)")
    if n < 1:
        raise ConfigError("window length must be at least one slot")
    eps1 = eps0 / (2 * n)
    ell1 = table.ell(eps1)
    return RecalibrationPlan(eps0=eps0, n=n, eps1=eps1, ell1=ell1,
                             d1_size=n + ell1 + 1)


def sublinear_overhead_threshold(table: EllTable, eps0: float, alpha: float,
                                 n_max: int = 10**9) -> int | None:
    """Smallest window length from which the recalibrated liveness
    parameter stays below ``alpha * n``; None when it never does.

    Only budget-split growth that is logarithmic in n keeps the overhead
    sublinear; a 1/eps-shaped table makes the overhead scale linearly and
    the search reports None.
    """
    if not 0 < alpha:
        raise ConfigError("overhead fraction must be positive")

    def ok(n: int) -> bool:
        return table.ell(eps0 / (2 * n)) <= alpha * n

    n = 1
    while n <= n_max and not ok(n):
        n *= 2
    if n > n_max:
        return None
    lo, hi = max(1, n // 2), n
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    # confirm the property persists past the threshold before reporting it
    probe = hi
    for _ in range(6):
        probe = min(probe * 4, n_max)
        if not ok(probe):
            return None
        if probe == n_max:
            break
    return hi


@dataclass(frozen=True)
class CertificateRecalibration:
    """Ingredients of the certificate-based confirmation retrofit."""

    eps: float
    eps_prime: float
    theta_bound: float
    base_ell: int
    interval_len: int
    threshold: float
    spacing: int
    ell_prime: int
    rule: DensityCertificateRule


def build_certificate_recalibration(eps: float, theta_bound,
                                    profile: ProductionProfile, duration: int,
                                    base_ell: int,
                                    pool=None) -> CertificateRecalibration:
    """Derive the density-certificate rule from a liveness-and-domination
    budget: a quarter of the budget goes to each tail side, the window
    length comes from the two-sided tail bound, and the emitted liveness
    parameter grows by two windows."""
    if pool is not None and pool.mode != "sized":
        raise SettingMismatchError(
            "certificate recalibration needs a sized pool: the threshold "
            "and window arithmetic consume the declared totals")
    if not 0 < eps < 1:
        raise ConfigError("error budget must lie in (0, 1)")
    if base_ell < 1:
        raise ConfigError("base liveness parameter must be at least 1")
    eps_prime = eps / 4
    r = interval_length_r(theta_bound, eps_prime, profile, duration)
    theta = density_threshold(theta_bound, profile, r)
    spacing = base_ell + r
    rule = DensityCertificateRule(spacing=spacing, interval_len=r,
                                  threshold=theta, duration=duration)
    return CertificateRecalibration(
        eps=eps, eps_prime=eps_prime, theta_bound=float(theta_bound),
        base_ell=base_ell, interval_len=r, threshold=theta, spacing=spacing,
        ell_prime=base_ell + 2 * r, rule=rule)
