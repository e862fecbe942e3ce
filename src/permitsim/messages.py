"""Keys and messages.

A message is a pair (signer, body): the body carries the kind (block or
plain payload), an optional parent reference and timestamp, an opaque
payload string, and a list of embedded (key, body-digest) pairs.  Message
identity is a SHA-256 digest of the canonical body encoding plus the
signer, so two executions that construct the same content produce the
same ids — a property the paired-execution experiments rely on.

The canonical encoding is ``CANONICAL_JSON`` (sorted keys, no spaces,
ASCII escapes), but a message writes it from a fixed template once, at
construction: one stored text gives the id, the body digest (the text
without the signer) and the transcript form (the text with the id).
Field types are checked first, since the template holds for those types
only.  ``tests/test_canonical_json.py`` checks the template against
``CANONICAL_JSON.encode`` on arbitrary strings and ints.

Keys are plain labels with an index, held as named tuples.  The
``owner`` field names the key group a key was minted in; the roster
assigns whole groups to processors, and two processors never share a
group.  Decoupling key identity from processor identity lets one
execution hand a group to an honest processor and another execution hand
the same group to an adversary while keeping every derived random draw
identical.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

BLOCK = "block"
PAYLOAD = "payload"

GENESIS_ID_PREFIX = "g:"

# the canonical JSON form of message bodies and transcript records
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class PublicKey(namedtuple("PublicKey", ("owner", "index"), defaults=(0,))):
    """A public key: group label plus mint index.

    A tuple, so keys hash, compare and order in C wherever they key a
    dict or a set; a key equals the plain tuple ``(owner, index)``.
    """

    __slots__ = ()

    def label(self) -> str:
        return f"{self.owner}/{self.index}"


@dataclass(frozen=True, init=False)
class Message:
    """An immutable message; blocks are messages of kind ``block``.

    ``embedded`` lists (key, body-digest) pairs the signer vouches for;
    a processor may only broadcast a message whose embedded pairs it has
    either signed itself or previously received.  ``id`` is derived from
    the content, never given.
    """

    signer: PublicKey | None
    kind: str = BLOCK
    parent: str | None = None
    timestamp: int | None = None
    payload: str = ""
    embedded: tuple[tuple[PublicKey, str], ...] = ()
    id: str = field(default="", compare=False, init=False)

    def __init__(self, signer: PublicKey | None, kind: str = BLOCK,
                 parent: str | None = None, timestamp: int | None = None,
                 payload: str = "", embedded: tuple = ()):
        if kind not in (BLOCK, PAYLOAD):
            raise ValueError(f"unknown message kind {kind!r}")
        if kind == PAYLOAD and parent is not None:
            raise ValueError("payload messages carry no parent reference")
        if parent is not None and not isinstance(parent, str):
            raise ValueError(f"a parent reference is a string, not {parent!r}")
        if timestamp is not None and type(timestamp) is not int:
            raise ValueError(f"a timestamp is an int, not {timestamp!r}")
        if not isinstance(payload, str):
            raise ValueError(f"a payload is a string, not {payload!r}")
        pairs = []
        for key, digest in embedded:
            if not isinstance(digest, str):
                raise ValueError(f"a body digest is a string, not {digest!r}")
            pairs.append(f"[{_key_text(key)},{_quote(digest)}]")
        # the canonical text of the body plus the signer, cut where the id
        # goes (after "embedded") and around the signer, which the body
        # digest leaves out
        head = '{"embedded":[' + ",".join(pairs) + "]"
        body = (f'{head},"kind":{_quote(kind)},"parent":'
                f'{"null" if parent is None else _quote(parent)},'
                f'"payload":{_quote(payload)}')
        signed = ',"signer":' + ("null" if signer is None
                                 else _key_text(signer))
        text = (f'{body}{signed},"timestamp":'
                f'{"null" if timestamp is None else timestamp}}}')
        # frozen: each field is set once, past the refusing __setattr__, and
        # key by key, so that every message shares its dict's key table
        fields = self.__dict__
        fields["signer"], fields["kind"], fields["parent"] = signer, kind, parent
        fields["timestamp"], fields["payload"] = timestamp, payload
        fields["embedded"] = embedded
        fields["id"] = hashlib.sha256(text.encode()).hexdigest()
        fields["_canonical"] = (text, len(head), len(body),
                                len(body) + len(signed))

    # -- identity ---------------------------------------------------------

    def body_digest(self) -> str:
        """SHA-256 of the canonical body: the message without its signer."""
        cached = self.__dict__.get("_body_digest")
        if cached is None:
            text, _, body, signed = self._canonical
            cached = hashlib.sha256(
                (text[:body] + text[signed:]).encode()).hexdigest()
            object.__setattr__(self, "_body_digest", cached)
        return cached

    def canonical_json(self) -> str:
        """``CANONICAL_JSON.encode(self.to_json())``, cut from the stored text."""
        text, embedded, _, _ = self._canonical
        return f'{text[:embedded]},"id":"{self.id}"{text[embedded:]}'

    # -- convenience ------------------------------------------------------

    @property
    def is_block(self) -> bool:
        return self.kind == BLOCK

    @property
    def is_genesis(self) -> bool:
        return self.is_block and self.parent is None and self.signer is None

    def pair(self) -> tuple[PublicKey | None, str]:
        """The (signer, body-digest) pair this message vouches for."""
        return (self.signer, self.body_digest())

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "parent": self.parent,
            "timestamp": self.timestamp,
            "payload": self.payload,
            "embedded": [[list(k), d] for k, d in self.embedded],
            "signer": None if self.signer is None else list(self.signer),
            "id": self.id,
        }

    @staticmethod
    def from_json(data: dict) -> "Message":
        """The message of ``to_json``'s form; raises ``ValueError`` for a
        field of the wrong type or an id that is not the content's."""
        signer = data["signer"]
        msg = Message(
            signer=None if signer is None else _key_from_json(signer),
            kind=data["kind"],
            parent=data["parent"],
            timestamp=data["timestamp"],
            payload=data["payload"],
            embedded=tuple(
                (_key_from_json(k), d) for k, d in data.get("embedded", [])
            ),
        )
        if "id" in data and data["id"] != msg.id:
            raise ValueError(f"message id mismatch: {data['id']} != {msg.id}")
        return msg


def _key_text(key) -> str:
    """The canonical JSON text of a key, ``[owner, index]``."""
    owner, index = key
    if not isinstance(owner, str) or type(index) is not int:
        raise ValueError(f"a key is a (str, int) pair, not {tuple(key)!r}")
    return f"[{_quote(owner)},{index}]"


def _key_from_json(data) -> PublicKey:
    if not isinstance(data, list) or len(data) != 2:
        raise ValueError(f"a key is a [str, int] pair, not {data!r}")
    return PublicKey(*data)  # the types are checked by _key_text


def genesis_block(timed: bool) -> Message:
    """The root block, a member of every processor's message state.

    It has no signer and no parent; in the timed setting its timestamp
    is 0 (one slot before the duration starts).
    """
    return Message(signer=None, kind=BLOCK, parent=None,
                   timestamp=0 if timed else None, payload="genesis")


def make_block(signer: PublicKey, parent: str, *, timestamp: int | None = None,
               payload: str = "",
               embedded: tuple[tuple[PublicKey, str], ...] = ()) -> Message:
    return Message(signer=signer, kind=BLOCK, parent=parent,
                   timestamp=timestamp, payload=payload, embedded=embedded)
