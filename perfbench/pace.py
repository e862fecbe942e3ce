"""The machine's current pace, for measuring at one reference pace.

A time ``t`` measured while ``pace_seconds()`` reads ``p`` counts as
``t * REFERENCE_PACE_S / p``.
"""

from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction

# the reference: the pace at which the loop below takes 100 ms
REFERENCE_PACE_S = 0.1


def pace_seconds() -> float:
    """Seconds a fixed pure-Python loop takes now: JSON, SHA-256, dicts
    and ``Fraction`` arithmetic, the staples of a permitsim trial.

    A shared machine's speed drifts: on a 2-CPU virtual machine it
    alternated between two levels, the slower about half the faster, in
    phases lasting from seconds to minutes, and this loop slowed in the
    same proportion as the trials.  Timed next to every round and every set-up probe, it
    lets ``trials_per_s`` and ``setup_s`` count their seconds at one
    reference pace.  The loop is the benchmark's own code, so a change to
    permitsim moves the round and set-up times and not the pace."""
    t0 = time.perf_counter()
    seen: dict[str, int] = {}
    acc = Fraction(0)
    for i in range(10000):
        body = json.dumps({"kind": "block", "slot": i, "parent": str(i - 1)},
                          sort_keys=True)
        digest = hashlib.sha256(body.encode()).hexdigest()
        seen[digest] = seen.get(digest[:2], 0) + 1
        if Fraction(i % 97, 101) < Fraction(1, 3):
            acc += Fraction(1, i + 1)
    return time.perf_counter() - t0
