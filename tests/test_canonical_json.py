"""The canonical-JSON templates equal the encoder they replace.

Messages and transcript records are written from fixed-schema string
templates rather than through ``CANONICAL_JSON.encode``.  The encoder
stays the oracle: every template must give its bytes exactly, for any
strings (quotes, backslashes, control, non-ASCII, astral and lone
surrogate characters), absent parents and timestamps, embedded pairs and
large ints.
"""

import hashlib
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from permitsim import engine
from permitsim.blocktree import BlockIndex
from permitsim.engine import TRANSCRIPT_FORMAT, Grant, Transcript
from permitsim.messages import (BLOCK, CANONICAL_JSON, PAYLOAD, Message,
                                PublicKey, genesis_block)

from conftest import transcript_lines

ODD = st.sampled_from(['"', "\\", "/", "\x00", "\n", "\x1f", "\x7f", "é",
                       " ", "\ud800", "\udfff", "\U0001F600", "a"])
TEXT = st.text(alphabet=st.one_of(ODD, st.characters()), max_size=8)
BIG = st.integers(min_value=-(2 ** 300), max_value=2 ** 300)
SLOT = st.integers(min_value=-2, max_value=6)  # small, so that slots tie
KEY = st.builds(PublicKey, TEXT, st.one_of(st.integers(0, 9), BIG))
EMBEDDED = st.lists(st.tuples(KEY, TEXT), max_size=3).map(tuple)


@st.composite
def messages(draw):
    kind = draw(st.sampled_from((BLOCK, PAYLOAD)))
    return Message(
        signer=draw(st.none() | KEY), kind=kind,
        parent=draw(st.none() | TEXT) if kind == BLOCK else None,
        timestamp=draw(st.none() | st.integers(0, 9) | BIG),
        payload=draw(TEXT), embedded=draw(EMBEDDED))


def body_dict(msg: Message) -> dict:
    """The message body as the encoder was given it."""
    return {"kind": msg.kind, "parent": msg.parent,
            "timestamp": msg.timestamp, "payload": msg.payload,
            "embedded": [[[k.owner, k.index], d] for k, d in msg.embedded]}


def signer_json(msg: Message):
    return None if msg.signer is None else [msg.signer.owner, msg.signer.index]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@settings(deadline=None, max_examples=300)
@given(messages())
def test_message_text_id_and_body_digest_match_the_encoder(msg):
    body = body_dict(msg)
    assert msg.body_digest() == sha(CANONICAL_JSON.encode(body))
    assert msg.id == sha(CANONICAL_JSON.encode({**body,
                                                "signer": signer_json(msg)}))
    assert msg.canonical_json() == CANONICAL_JSON.encode(msg.to_json())
    assert msg.to_json() == {**body, "signer": signer_json(msg), "id": msg.id}


def encoder_lines(t: Transcript) -> list[str]:
    """The transcript lines as the encoder wrote them, record by record."""
    enc = CANONICAL_JSON.encode
    lines = [enc({"type": "header", "format": TRANSCRIPT_FORMAT,
                  "label": t.label, "seed": t.seed, "duration": t.duration,
                  "roster": list(t.roster_ids),
                  "adversaries": list(t.adversary_ids), "config": t.header})]
    events = []
    for n, (slot, proc, mid) in enumerate(t.deliveries):
        events.append((slot, 0, n, {"type": "delivery", "slot": slot,
                                    "proc": proc, "msg_id": mid}))
    for n, (slot, proc, mid) in enumerate(t.broadcasts):
        events.append((slot, 1, n, {"type": "broadcast", "slot": slot,
                                    "proc": proc,
                                    "msg": t.store[mid].to_json()}))
    for n, g in enumerate(t.grants):
        events.append((g.slot, 2, n, {"type": "grant", **g._asdict()}))
    for n, (slot, proc, tip, ln) in enumerate(t.confirmations):
        events.append((slot, 3, n, {"type": "confirm", "slot": slot,
                                    "proc": proc, "tip": tip, "len": ln}))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    lines.extend(enc(e[3]) for e in events)
    lines.append(enc({"type": "end", "broadcasts": len(t.broadcasts)}))
    return lines


GRANT = st.builds(
    Grant, slot=SLOT, proc=TEXT, key=KEY,
    granted=st.lists(TEXT, max_size=3).map(tuple),
    leader_slot=st.none() | SLOT, m_digest=BIG, candidate=st.none() | TEXT)


@st.composite
def transcripts(draw):
    genesis = genesis_block(draw(st.booleans()))
    msgs = draw(st.lists(messages(), min_size=1, max_size=4))
    store = {genesis.id: genesis, **{m.id: m for m in msgs}}
    ids = st.sampled_from(sorted(store))
    return Transcript(
        label=draw(TEXT), seed=draw(BIG), header={"note": draw(TEXT)},
        genesis=genesis, index=BlockIndex(genesis), store=store,
        broadcasts=draw(st.lists(st.tuples(SLOT, TEXT, ids), max_size=5)),
        deliveries=draw(st.lists(st.tuples(SLOT, TEXT, TEXT), max_size=5)),
        grants=draw(st.lists(GRANT, max_size=4)),
        confirmations=draw(st.lists(
            st.tuples(SLOT, TEXT, st.none() | TEXT, BIG), max_size=5)),
        duration=draw(SLOT), roster_ids=tuple(draw(st.lists(TEXT, max_size=3))),
        adversary_ids=tuple(draw(st.lists(TEXT, max_size=2))))


@settings(deadline=None, max_examples=100)
@given(transcripts())
def test_record_lines_match_the_encoder(t):
    assert transcript_lines(t) == encoder_lines(t)


@settings(deadline=None, max_examples=100)
@given(transcripts(), st.integers(min_value=1, max_value=4))
def test_record_lines_match_the_encoder_across_windows(t, window_slots):
    # the drawn slots span a few windows this small, so records of one
    # kind fall out of order across window boundaries
    with mock.patch.object(engine, "WINDOW_SLOTS", window_slots):
        assert transcript_lines(t) == encoder_lines(t)
