"""Output checks made apart from the program.

These run after the timed region on the transcript files a run saved.
They parse the JSONL themselves, recompute message ids and permitter
draws with their own SHA-256 code, and rebuild what each processor held
slot by slot from the broadcasts and deliveries.  The only permitsim
calls are the ones a check is about: ``Transcript.from_lines`` for the
round trip and ``verify_transcript_invariants`` on the honest wide run.

Each check raises ``CheckFailure`` naming what went wrong.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

U64 = 2**64
NEVER = math.inf


class CheckFailure(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailure(what)


# ---------------------------------------------------------------------------
# hashing: message ids and permitter draws
# ---------------------------------------------------------------------------


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def message_id(signer, kind: str, parent, timestamp, payload: str,
               embedded: list) -> str:
    body = {"kind": kind, "parent": parent, "timestamp": timestamp,
            "payload": payload, "embedded": embedded, "signer": signer}
    return hashlib.sha256(_canonical(body)).hexdigest()


def genesis_id(timed: bool) -> str:
    return message_id(None, "block", None, 0 if timed else None, "genesis", [])


def _label(part) -> bytes:
    if isinstance(part, str):
        data = part.encode()
        return b"s" + len(data).to_bytes(4, "little") + data
    if isinstance(part, int) and not isinstance(part, bool):
        data = str(part).encode()
        return b"i" + len(data).to_bytes(4, "little") + data
    raise TypeError(f"no label encoding for {part!r}")


def draw_u64(seed: int, *parts) -> int:
    """The 64-bit draw permitsim documents for (seed, *labels)."""
    h = hashlib.sha256(str(seed).encode())
    h.update(b"".join(_label(p) for p in parts))
    return int.from_bytes(h.digest()[:8], "little")


def wins(draw: int, threshold: Fraction) -> bool:
    """draw / 2^64 < threshold, in integers."""
    return draw * threshold.denominator < threshold.numerator * U64


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


@dataclass
class Record:
    """One transcript file, parsed without permitsim."""

    data: bytes
    header: dict
    messages: dict = field(default_factory=dict)      # id -> message json
    broadcasts: list = field(default_factory=list)    # (slot, proc, id)
    deliveries: list = field(default_factory=list)    # (slot, proc, id)
    grants: list = field(default_factory=list)        # grant dicts
    confirms: list = field(default_factory=list)      # (slot, proc, tip, len)
    parent: dict = field(default_factory=dict)        # block id -> parent id
    height: dict = field(default_factory=dict)        # block id -> height

    @property
    def config(self) -> dict:
        return self.header["config"]

    @property
    def duration(self) -> int:
        return self.header["duration"]

    @property
    def seed(self) -> int:
        return self.header["seed"]

    def honest(self) -> list[str]:
        adv = set(self.header["adversaries"])
        return [p for p in self.header["roster"] if p not in adv]


_RANK = {"delivery": 0, "broadcast": 1, "grant": 2, "confirm": 3}


def parse(data: bytes) -> Record:
    require(data.endswith(b"\n"), "transcript does not end with a newline")
    lines = [json.loads(line) for line in data.decode().split("\n")[:-1]]
    require(len(lines) >= 2, "transcript has no header and end records")
    header, end = lines[0], lines[-1]
    require(header.get("type") == "header" and header.get("format") == 1,
            "first record is not a format-1 header")
    require(end.get("type") == "end", "last record is not the end record")
    rec = Record(data=data, header=header)
    gid = genesis_id(bool(header["config"]["timed"]))
    rec.parent[gid], rec.height[gid] = None, 0
    rec.messages[gid] = None
    last = (0, -1)
    for line in lines[1:-1]:
        kind = line["type"]
        require(kind in _RANK, f"unknown record type {kind!r}")
        order = (line["slot"], _RANK[kind])
        require(order >= last, f"record out of order at slot {line['slot']}")
        last = order
        if kind == "broadcast":
            msg = line["msg"]
            mid = message_id(msg["signer"], msg["kind"], msg["parent"],
                             msg["timestamp"], msg["payload"], msg["embedded"])
            require(mid == msg["id"], f"message id {msg['id'][:12]} does not "
                    f"match its content")
            if msg["kind"] == "block" and mid not in rec.parent:
                require(msg["parent"] in rec.parent,
                        f"block {mid[:12]} broadcast before its parent")
                rec.parent[mid] = msg["parent"]
                rec.height[mid] = rec.height[msg["parent"]] + 1
            rec.messages[mid] = msg
            rec.broadcasts.append((line["slot"], line["proc"], mid))
        elif kind == "delivery":
            require(line["msg_id"] in rec.messages,
                    f"delivery of never-broadcast {line['msg_id'][:12]}")
            rec.deliveries.append((line["slot"], line["proc"], line["msg_id"]))
        elif kind == "grant":
            rec.grants.append(line)
        else:
            rec.confirms.append((line["slot"], line["proc"], line["tip"],
                                 line["len"]))
    require(end.get("broadcasts") == len(rec.broadcasts),
            "end record disagrees with the broadcast count")
    return rec


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# checks common to every transcript
# ---------------------------------------------------------------------------


def _balances(rec: Record) -> dict[str, Fraction]:
    pool = rec.config["pool"]
    # Constant pools (no hidden-total profile) and stake pools without
    # rewards: the header's balances are the balances at every slot.
    require(pool["family"] in ("ConstantBalancePool", "StakePool"),
            f"no independent balance model for {pool['family']}")
    return {label: Fraction(v) for label, v in pool["balances"].items()}


def check_grants(rec: Record) -> None:
    """Re-derive every recorded grant from the header's seed, pool and
    permitter."""
    config = rec.config
    perm, pool = config["permitter"], config["pool"]
    balances = _balances(rec)
    rate = Fraction(perm["rate"])
    total = sum(balances.values(), Fraction(0))
    if perm["family"] == "WorkPermitter":
        if pool["mode"] == "sized":
            scale = total
        else:
            scale = Fraction(perm.get("reference_scale", pool["bounds"][0]))
        for g in rec.grants:
            owner, index = g["key"]
            bal = balances.get(f"{owner}/{index}", Fraction(0))
            threshold = min(Fraction(1), rate * bal / scale)
            require(g["granted"] == [g["candidate"]] and g["leader_slot"] is None,
                    f"work grant at slot {g['slot']} is not exactly its candidate")
            draw = draw_u64(rec.seed, "work", owner, index, g["slot"],
                            g["m_digest"], g["candidate"])
            require(wins(draw, threshold),
                    f"work grant to {owner}/{index} at slot {g['slot']} loses "
                    f"the lottery")
    elif perm["family"] == "StakePermitter":
        lookahead = perm["lookahead"]
        for g in rec.grants:
            owner, index = g["key"]
            target = g["leader_slot"]
            threshold = min(Fraction(1),
                            rate * balances.get(f"{owner}/{index}", 0) / total)
            require(g["granted"] == [] and g["candidate"] is None,
                    f"stake grant at slot {g['slot']} carries a block")
            require(target is not None
                    and g["slot"] < target <= min(g["slot"] + lookahead,
                                                  rec.duration),
                    f"leader slot {target} outside the lookahead of slot "
                    f"{g['slot']}")
            require(wins(draw_u64(rec.seed, "stake", owner, index, target),
                         threshold),
                    f"leader grant {owner}/{index}@{target} loses the lottery")
    else:
        raise CheckFailure(f"unknown permitter family {perm['family']}")


def check_leader_slots(rec: Record, first: int) -> None:
    """Each key's leader slots are exactly the slots it wins in
    [first, duration], the range the stakers request."""
    rate = Fraction(rec.config["permitter"]["rate"])
    balances = _balances(rec)
    total = sum(balances.values(), Fraction(0))
    granted: dict[str, list[int]] = {label: [] for label in balances}
    for g in rec.grants:
        granted.setdefault("/".join(map(str, g["key"])), []).append(
            g["leader_slot"])
    for label, bal in balances.items():
        owner, index = label.rsplit("/", 1)
        threshold = min(Fraction(1), rate * bal / total)
        won = [t for t in range(first, rec.duration + 1)
               if wins(draw_u64(rec.seed, "stake", owner, int(index), t),
                       threshold)]
        require(sorted(granted[label]) == won,
                f"{label} holds {len(granted[label])} leader slots, its "
                f"lottery gives {len(won)}")


def check_coverage(rec: Record) -> None:
    """Every broadcast is covered by an earlier grant or receipt."""
    granted: dict = {}
    leader: dict = {}
    for g in rec.grants:
        for mid in g["granted"]:
            granted.setdefault((g["proc"], mid), g["slot"])
        if g["leader_slot"] is not None:
            key = (g["proc"], "/".join(map(str, g["key"])), g["leader_slot"])
            leader.setdefault(key, g["slot"])
    received: dict = {}
    for slot, proc, mid in rec.deliveries:
        received.setdefault((proc, mid), slot)
    sent: dict = {}
    for slot, proc, mid in rec.broadcasts:
        msg = rec.messages[mid]
        signer = "/".join(map(str, msg["signer"])) if msg["signer"] else ""
        covered = (
            received.get((proc, mid), NEVER) <= slot
            or sent.get((proc, mid), NEVER) < slot
            or granted.get((proc, mid), NEVER) < slot
            or (msg["timestamp"] is not None
                and leader.get((proc, signer, msg["timestamp"]), NEVER) < slot))
        require(covered, f"{proc} broadcast {mid[:12]} at slot {slot} without "
                f"an earlier grant or receipt")
        sent.setdefault((proc, mid), slot)


# ---------------------------------------------------------------------------
# held sets rebuilt slot by slot, and the confirmations replayed on them
# ---------------------------------------------------------------------------


class HeldState:
    """One processor's message state: what it holds, the XOR digest that
    names the set, which blocks are active (their whole ancestry held) and
    the longest active tip (ties: smallest id)."""

    def __init__(self, rec: Record, gid: str):
        self.rec = rec
        self.held = {gid}
        self.xor = int(gid[:16], 16)
        self.active = {gid}
        self.waiting: dict[str, list[str]] = {}
        self.tip, self.tip_h = gid, 0

    def add(self, mid: str) -> list[str]:
        """Hold a message; returns the blocks it activates."""
        rec = self.rec
        if mid in self.held:
            return []
        self.held.add(mid)
        self.xor ^= int(mid[:16], 16)
        if mid not in rec.parent:
            return []
        if rec.parent[mid] not in self.active:
            self.waiting.setdefault(rec.parent[mid], []).append(mid)
            return []
        activated, queue = [], [mid]
        while queue:
            b = queue.pop()
            self.active.add(b)
            activated.append(b)
            h = rec.height[b]
            if h > self.tip_h or (h == self.tip_h and b < self.tip):
                self.tip, self.tip_h = b, h
            queue.extend(self.waiting.pop(b, ()))
        return activated


def arrivals(rec: Record) -> dict[str, dict[int, list[str]]]:
    """proc -> slot -> messages it came to hold then: the receive phase
    first, then the processor's own broadcasts."""
    by_proc: dict[str, dict[int, list[str]]] = {}
    for slot, proc, mid in rec.deliveries + rec.broadcasts:
        by_proc.setdefault(proc, {}).setdefault(slot, []).append(mid)
    return by_proc


def confirms_by_proc(rec: Record) -> dict[str, list]:
    confirms: dict[str, list] = {}
    for c in rec.confirms:
        confirms.setdefault(c[1], []).append(c)
    return confirms


# ---------------------------------------------------------------------------
# work lane: depth confirmation
# ---------------------------------------------------------------------------


def check_k_deep(rec: Record) -> None:
    """Rebuild each processor's message state slot by slot and replay
    depth-k confirmation.  For honest processors also re-derive each
    grant's presented-set digest and candidate block."""
    k = rec.config["confirmation"]["k"]
    gid = genesis_id(False)
    honest = set(rec.honest())
    by_proc = arrivals(rec)
    grants_at: dict[tuple[str, int], list[dict]] = {}
    for g in rec.grants:
        grants_at.setdefault((g["proc"], g["slot"]), []).append(g)
    confirms = confirms_by_proc(rec)

    for proc in rec.header["roster"]:
        came = by_proc.get(proc, {})
        state = HeldState(rec, gid)
        last = None
        expected = []
        for slot in range(1, rec.duration + 1):
            for mid in came.get(slot, ()):
                state.add(mid)
            if proc in honest:
                for g in grants_at.get((proc, slot), ()):
                    require(g["m_digest"] == state.xor,
                            f"{proc}'s request at slot {slot} names a message "
                            f"set it did not hold")
                    cand = message_id(g["key"], "block", state.tip, None, "",
                                      [])
                    require(g["candidate"] == cand,
                            f"{proc}'s candidate at slot {slot} does not "
                            f"extend its longest tip")
            length = max(1, state.tip_h + 1 - k)
            leaf = state.tip
            for _ in range(state.tip_h + 1 - length):
                leaf = rec.parent[leaf]
            if (leaf, length) != last:
                last = (leaf, length)
                expected.append((slot, proc, leaf, length))
        require(confirms.get(proc, []) == expected,
                f"{proc}'s confirmations differ from depth-{k} confirmation "
                f"of its held set")


# ---------------------------------------------------------------------------
# stake lane: density certificates
# ---------------------------------------------------------------------------


def density_keys(rec: Record, spacing: int, length: int) -> dict[str, tuple]:
    """Block -> (i, leaf) for every block that witnesses a prefix: its
    timestamp lies inside window i = [i*spacing, i*spacing + length], the
    window ends by the last slot, and its ancestor at height i - 1 (the
    prefix's leaf) has a chain timestamped wholly before the window."""
    timestamp = {mid: 0 if msg is None else msg["timestamp"]
                 for mid, msg in rec.messages.items() if mid in rec.parent}
    chain_max: dict[str, int] = {}
    for b, parent in rec.parent.items():  # parents come before children
        chain_max[b] = max(timestamp[b],
                           chain_max[parent] if parent is not None else 0)
    ancestors: dict[int, dict[str, str]] = {}

    def ancestor_at(b: str, h: int) -> str:
        memo = ancestors.setdefault(h, {})
        path, x = [], b
        while x not in memo and rec.height[x] > h:
            path.append(x)
            x = rec.parent[x]
        found = memo.get(x, x)
        for p in path:
            memo[p] = found
        return found

    keys = {}
    for b, ts in timestamp.items():
        i = ts // spacing
        start = i * spacing
        if (i < 1 or ts - start > length or start + length > rec.duration
                or rec.height[b] < i - 1):
            continue
        leaf = ancestor_at(b, i - 1)
        if chain_max[leaf] < start:
            keys[b] = (i, leaf)
    return keys


def check_density_confirmations(rec: Record) -> None:
    """Rebuild each processor's held set slot by slot and replay the
    density rule on it: a prefix of length i ending at a leaf is confirmed
    once at least the threshold number of witnesses of (i, leaf) are
    active, and the confirmation is the longest such prefix, ties going to
    the smallest leaf.  The recorded confirmations must equal the replay,
    so a confirmation made without a certificate fails, and so does one
    the certificates call for that was never made."""
    rule = rec.config["confirmation"]
    require(rule["family"] == "density_certificate", "not a density rule")
    require(rule["duration"] == rec.duration,
            "the density rule's grid ends elsewhere than the execution")
    spacing, length = rule["spacing"], rule["interval_len"]
    threshold = rule["threshold"]
    rate = float(Fraction(rec.config["permitter"]["rate"]))
    require(math.isclose(threshold, length * rate / 2, rel_tol=1e-9),
            f"threshold {threshold} is not the midpoint {length * rate / 2}")
    keys = density_keys(rec, spacing, length)
    gid = genesis_id(True)
    by_proc = arrivals(rec)
    confirms = confirms_by_proc(rec)

    for proc in rec.header["roster"]:
        came = by_proc.get(proc, {})
        state = HeldState(rec, gid)
        counts: dict[tuple, int] = {}
        best = None
        last = None
        expected = []
        for slot in range(1, rec.duration + 1):
            for mid in came.get(slot, ()):
                for b in state.add(mid):
                    key = keys.get(b)
                    if key is None:
                        continue
                    counts[key] = counts.get(key, 0) + 1
                    if counts[key] >= threshold and (
                            best is None or key[0] > best[0]
                            or (key[0] == best[0] and key[1] < best[1])):
                        best = key
            current = (None, 0) if best is None else (best[1], best[0])
            if current != last:
                last = current
                expected.append((slot, proc) + current)
        require(confirms.get(proc, []) == expected,
                f"{proc}'s confirmations differ from the density rule "
                f"replayed on its held set")


# ---------------------------------------------------------------------------
# simulation release
# ---------------------------------------------------------------------------


def check_release(inner: Record, attacked: Record, released_at,
                  attacker: str, owners: set[str]) -> None:
    """The attacker released once, and what it released is the inner run's
    ledger up to that slot, whose grants it drew one for one."""
    require(released_at is not None, "the attacker never released")
    sent = [(slot, mid) for slot, proc, mid in attacked.broadcasts
            if proc == attacker]
    require(sent and all(slot == released_at for slot, _ in sent),
            f"{attacker} broadcast outside its release slot {released_at}")
    prefix = [mid for slot, _proc, mid in inner.broadcasts
              if slot <= released_at]
    require([mid for _, mid in sent] == prefix,
            "the release is not the inner run's ledger prefix")

    def trace(rec: Record) -> list:
        return [(g["slot"], tuple(g["key"]), tuple(g["granted"]), g["m_digest"],
                 g["candidate"]) for g in rec.grants
                if g["slot"] < released_at and g["key"][0] in owners]

    require(trace(inner) == trace(attacked),
            "the attacker's grants before release differ from the inner run's")


# ---------------------------------------------------------------------------
# one trial
# ---------------------------------------------------------------------------


def check_round_trip_and_load(rec: Record, transcript_cls):
    transcript = transcript_cls.from_lines(rec.data.decode().splitlines())
    require(transcript.to_bytes() == rec.data,
            "from_lines then to_bytes changes the bytes")
    return transcript


def check_trial(scenario: str, result: dict, records: list[Record],
                permitsim) -> None:
    """All checks of one trial, given its result row and saved transcripts."""
    reported = sorted(v for k, v in result.items() if k.endswith("_sha256") and v)
    require(sorted(digest(r.data) for r in records) == reported,
            "the saved transcripts are not the ones whose digests the trial "
            "reported")
    loaded = []
    for rec in records:
        check_grants(rec)
        check_coverage(rec)
        loaded.append(check_round_trip_and_load(rec, permitsim.engine.Transcript))

    if scenario == "stake_density_certificates":
        require(len(records) == 1, "expected one transcript")
        # each staker asks for every slot from 2 (one past slot 1) to the end
        check_leader_slots(records[0], first=2)
        check_density_confirmations(records[0])
        final = [c for c in records[0].confirms if c[1] == "val"][-1][3]
        require(result["final_confirmed_len"] == final,
                f"the trial reports a final confirmed length of "
                f"{result['final_confirmed_len']}, its transcript {final}")
    elif scenario == "honest_work_liveness":
        require(len(records) == 1, "expected one transcript")
        problems = permitsim.analysis.verify_transcript_invariants(loaded[0])
        require(not problems, f"invariant problems: {problems[:3]}")
        check_k_deep(records[0])
    elif scenario == "simulation_release":
        attacked = [r for r in records if r.header["adversaries"]]
        inner = [r for r in records if not r.header["adversaries"]]
        require(len(attacked) == 1 and len(inner) == 1,
                "expected an inner and an attacked transcript")
        for rec in records:
            check_k_deep(rec)
        owners = {label.split("/")[0]
                  for proc in inner[0].config["processors"]
                  for label in proc["keys"]}
        check_release(inner[0], attacked[0], result["released_at"],
                      attacked[0].header["adversaries"][0], owners)
        require(result["coupling_ok"] and result["ledger_match"],
                "the trial reports broken coupling or ledger match")
    else:
        raise CheckFailure(f"no checks for scenario {scenario!r}")
