"""Keys and messages.

A message is a pair (signer, body): the body carries the kind (block or
plain payload), an optional parent reference and timestamp, an opaque
payload string, and a list of embedded (key, body-digest) pairs.  Message
identity is a SHA-256 digest of the canonical body encoding plus the
signer, so two executions that construct the same content produce the
same ids — a property the paired-execution experiments rely on.

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

    def to_json(self) -> list:
        return [self.owner, self.index]

    @staticmethod
    def from_json(data) -> "PublicKey":
        return PublicKey(str(data[0]), int(data[1]))


@dataclass(frozen=True)
class Message:
    """An immutable message; blocks are messages of kind ``block``.

    ``embedded`` lists (key, body-digest) pairs the signer vouches for;
    a processor may only broadcast a message whose embedded pairs it has
    either signed itself or previously received.
    """

    signer: PublicKey | None
    kind: str = BLOCK
    parent: str | None = None
    timestamp: int | None = None
    payload: str = ""
    embedded: tuple[tuple[PublicKey, str], ...] = ()
    id: str = field(default="", compare=False)

    def __post_init__(self):
        if self.kind not in (BLOCK, PAYLOAD):
            raise ValueError(f"unknown message kind {self.kind!r}")
        if self.kind == PAYLOAD and self.parent is not None:
            raise ValueError("payload messages carry no parent reference")
        object.__setattr__(self, "id", self._digest())

    # -- identity ---------------------------------------------------------

    def body_json(self) -> dict:
        return {
            "kind": self.kind,
            "parent": self.parent,
            "timestamp": self.timestamp,
            "payload": self.payload,
            "embedded": [[k.to_json(), d] for k, d in self.embedded],
        }

    def body_digest(self) -> str:
        cached = self.__dict__.get("_body_digest")
        if cached is None:
            data = CANONICAL_JSON.encode(self.body_json())
            cached = hashlib.sha256(data.encode()).hexdigest()
            object.__setattr__(self, "_body_digest", cached)
        return cached

    def _digest(self) -> str:
        body = self.body_json()
        body["signer"] = None if self.signer is None else self.signer.to_json()
        data = CANONICAL_JSON.encode(body)
        return hashlib.sha256(data.encode()).hexdigest()

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
        data = self.body_json()
        data["signer"] = None if self.signer is None else self.signer.to_json()
        data["id"] = self.id
        return data

    @staticmethod
    def from_json(data: dict) -> "Message":
        msg = Message(
            signer=None if data["signer"] is None else PublicKey.from_json(data["signer"]),
            kind=data["kind"],
            parent=data["parent"],
            timestamp=data["timestamp"],
            payload=data["payload"],
            embedded=tuple(
                (PublicKey.from_json(k), d) for k, d in data.get("embedded", [])
            ),
        )
        if "id" in data and data["id"] != msg.id:
            raise ValueError(f"message id mismatch: {data['id']} != {msg.id}")
        return msg


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
