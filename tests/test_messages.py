"""Message identity, serialization, and the vouching pairs."""

import dataclasses
import pickle

import pytest

from permitsim.messages import (Message, PublicKey, genesis_block,
                                make_block)


def test_key_label_and_json_round_trip():
    key = PublicKey("group", 3)
    assert key.label() == "group/3"
    # a key's JSON form is the signer of a message's JSON form
    signer = Message.from_json(make_block(key, "root").to_json()).signer
    assert signer == key and type(signer) is PublicKey


def test_keys_built_apart_are_equal_and_hash_alike():
    a, b = PublicKey("group", 3), PublicKey(owner="group", index=3)
    assert a == b and hash(a) == hash(b) and a is not b
    assert PublicKey("group") == PublicKey("group", 0)
    assert a != PublicKey("group", 4) and a != PublicKey("grouq", 3)
    assert len({a, b, PublicKey("group", 4)}) == 2
    assert {a: 1}[b] == 1
    # a key is the tuple (owner, index)
    assert a == ("group", 3) and hash(a) == hash(("group", 3))


def test_keys_order_by_owner_then_index():
    keys = [PublicKey("b", 0), PublicKey("a", 10), PublicKey("a", 2),
            PublicKey("a", 0)]
    assert sorted(keys) == [PublicKey("a", 0), PublicKey("a", 2),
                            PublicKey("a", 10), PublicKey("b", 0)]
    assert min(keys) == PublicKey("a", 0)
    assert PublicKey("a", 9) < PublicKey("b", 0) <= PublicKey("b", 0)


def test_keys_survive_pickling():
    key = PublicKey("group", 3)
    copy = pickle.loads(pickle.dumps(key))
    assert copy == key and type(copy) is PublicKey
    assert copy.label() == "group/3"
    block = make_block(key, "root", payload="x", embedded=((key, "d"),))
    assert pickle.loads(pickle.dumps(block)) == block


def test_key_json_and_label_forms():
    key = PublicKey("group", 3)
    assert repr(key) == "PublicKey(owner='group', index=3)"
    assert make_block(key, "root").to_json()["signer"] == ["group", 3]


def test_message_id_is_content_addressed():
    key = PublicKey("p", 0)
    a = make_block(key, "root", payload="x")
    b = make_block(key, "root", payload="x")
    c = make_block(key, "root", payload="y")
    assert a.id == b.id
    assert a.id != c.id


def test_id_covers_signer():
    a = make_block(PublicKey("p", 0), "root")
    b = make_block(PublicKey("q", 0), "root")
    assert a.id != b.id


def test_body_digest_ignores_signer():
    # the vouched-for body is signer-independent: two signers can embed
    # the same body under their own keys
    a = make_block(PublicKey("p", 0), "root", payload="z")
    b = make_block(PublicKey("q", 0), "root", payload="z")
    assert a.body_digest() == b.body_digest()
    assert a.pair() == (PublicKey("p", 0), a.body_digest())


def test_json_round_trip():
    key = PublicKey("p", 1)
    inner = make_block(key, "root", payload="inner")
    msg = make_block(key, "root", timestamp=None, payload="outer",
                     embedded=(inner.pair(),))
    back = Message.from_json(msg.to_json())
    assert back == msg
    assert back.id == msg.id


def test_json_rejects_tampered_id():
    msg = make_block(PublicKey("p", 0), "root")
    data = msg.to_json()
    data["id"] = "0" * 64
    with pytest.raises(ValueError):
        Message.from_json(data)


def test_genesis_shape():
    untimed = genesis_block(timed=False)
    timed = genesis_block(timed=True)
    assert untimed.is_genesis and timed.is_genesis
    assert untimed.timestamp is None
    assert timed.timestamp == 0
    assert untimed.id != timed.id


def test_payload_kind_carries_no_parent():
    with pytest.raises(ValueError):
        Message(signer=PublicKey("p", 0), kind="payload", parent="root")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Message(signer=PublicKey("p", 0), kind="vote")


@pytest.mark.parametrize("fields,problem", [
    ({"timestamp": "3"}, "a timestamp is an int"),
    ({"timestamp": True}, "a timestamp is an int"),
    ({"timestamp": 3.0}, "a timestamp is an int"),
    ({"parent": 5}, "a parent reference is a string"),
    ({"payload": None}, "a payload is a string"),
    ({"embedded": ((PublicKey("p", 0), 5),)}, "a body digest is a string"),
    ({"embedded": ((PublicKey("p", True), "d"),)}, "a key is a"),
    ({"signer": PublicKey(5, 0)}, "a key is a"),
    ({"kind": None}, "unknown message kind"),
])
def test_wrong_typed_fields_are_refused(fields, problem):
    # the canonical text is written from templates that hold for these
    # types only
    with pytest.raises(ValueError, match=problem):
        Message(**{"signer": PublicKey("p", 0), "parent": "root", **fields})


def test_from_json_refuses_a_key_that_is_not_a_pair():
    data = make_block(PublicKey("p", 0), "root").to_json()
    data["signer"] = ["p", 0, 1]
    with pytest.raises(ValueError, match=r"a key is a \[str, int\] pair"):
        Message.from_json(data)


def test_a_message_survives_pickling_with_its_identity():
    key = PublicKey("p", 2)
    msg = make_block(key, "root", timestamp=4, payload="x",
                     embedded=((key, "d"),))
    back = pickle.loads(pickle.dumps(msg))
    assert back == msg and back.id == msg.id
    assert back.body_digest() == msg.body_digest()
    assert back.canonical_json() == msg.canonical_json()


def test_replace_builds_the_changed_message():
    msg = make_block(PublicKey("p", 0), "root", payload="x")
    moved = dataclasses.replace(msg, payload="y", timestamp=3)
    again = make_block(PublicKey("p", 0), "root", payload="y", timestamp=3)
    assert moved == again and moved.id == again.id != msg.id
    assert moved.canonical_json() == again.canonical_json()
    with pytest.raises(ValueError, match="a timestamp is an int"):
        dataclasses.replace(msg, timestamp="3")
    with pytest.raises(ValueError):  # the id is derived, never given
        dataclasses.replace(msg, id="0" * 64)


def test_equality_and_hash_follow_the_content():
    a = make_block(PublicKey("p", 0), "root", payload="x")
    b = make_block(PublicKey("p", 0), "root", payload="x")
    c = make_block(PublicKey("q", 0), "root", payload="x")
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != c and len({a, b, c}) == 2
    # the id takes no part in equality or the hash
    assert [f.name for f in dataclasses.fields(Message)
            if not f.compare] == ["id"]
    assert hash(a) == hash((a.signer, a.kind, a.parent, a.timestamp,
                            a.payload, a.embedded))


def test_a_message_is_frozen():
    msg = make_block(PublicKey("p", 0), "root")
    for name in ("payload", "id", "parent"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(msg, name, "x")
    assert msg == make_block(PublicKey("p", 0), "root")
