"""Deterministic randomness substreams.

Every random choice in an execution is derived from a single 64-bit root
seed plus a tuple of labels identifying the choice point (a domain tag,
key labels, slot numbers, message digests, ...).  Derivation is a SHA-256
hash of the canonically encoded label tuple, so:

* re-running with the same seed reproduces every draw bit-for-bit,
* adding or removing a processor never perturbs the draws made by other
  processors (streams are keyed by content, not by call order),
* two executions that share a seed and issue a request with identical
  labels receive identical verdicts.

The last two properties are what make paired-execution experiments
meaningful: an attacker privately re-deriving another roster's behaviour
sees exactly the grant sequence that roster would have seen.

SHA-256 is a streaming hash and the label encoding is the concatenation
of each part's own encoding, so the hash state after ``str(seed)`` and a
fixed run of leading labels can be kept and copied for every draw that
shares them.  A ``Prefix`` is that state:
``Prefix(seed, *a).u64_of(encode(*b))`` equals
``substream_u64(seed, *a, *b)`` for every split of a label tuple, and
costs one state copy, one update and one digest per draw.  The
permitters keep one per (seed, key) for their lottery draws.
"""

from __future__ import annotations

import hashlib
import struct

_length = struct.Struct("<I").pack  # a part's 4-byte little-endian length
_first_u64 = struct.Struct("<Q").unpack_from  # a digest's first 8 bytes


def _encode(parts: tuple) -> bytes:
    """Canonical, injective byte encoding of a label tuple."""
    out = bytearray()
    for part in parts:
        if type(part) is str:  # the common label types first
            data = part.encode("utf-8")
            out += b"s"
        elif type(part) is int:
            data = str(part).encode()
            out += b"i"
        elif isinstance(part, bool):  # bool is an int subclass; tag separately
            out += b"b\x01" if part else b"b\x00"
            continue
        elif isinstance(part, int):  # other subclasses encode as their base
            data = str(int(part)).encode()
            out += b"i"
        elif isinstance(part, str):
            data = part.encode("utf-8")
            out += b"s"
        elif isinstance(part, bytes):
            data = part
            out += b"y"
        elif part is None:
            out += b"n"
            continue
        else:
            raise TypeError(f"unsupported label type {type(part)!r}")
        out += _length(len(data))
        out += data
    return bytes(out)


def encode(*parts) -> bytes:
    """The canonical encoding of the labels ``parts``, as ``Prefix.u64_of``
    takes it."""
    return _encode(parts)


def substream_u64(seed: int, *parts) -> int:
    """A 64-bit value tied to (seed, *parts)."""
    digest = hashlib.sha256(str(seed).encode() + _encode(parts)).digest()
    return int.from_bytes(digest[:8], "little")


class Prefix:
    """The hash state of ``(seed, *parts)``, to draw ``substream_u64`` for
    any labels that extend ``parts``."""

    __slots__ = ("_state",)

    def __init__(self, seed: int, *parts):
        self._state = hashlib.sha256(str(seed).encode() + _encode(parts))

    def u64_of(self, encoded: bytes) -> int:
        """``substream_u64(seed, *parts, *rest)`` where ``encoded`` is
        ``encode(*rest)``."""
        state = self._state.copy()
        state.update(encoded)
        return _first_u64(state.digest())[0]


def uniform_int(seed: int, lo: int, hi: int, *parts) -> int:
    """A uniform integer in [lo, hi] tied to (seed, *parts)."""
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    return lo + substream_u64(seed, *parts) % (hi - lo + 1)
