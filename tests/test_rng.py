"""The derived-stream RNG: keyed, deterministic, statistically flat."""

import enum
import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from permitsim import rng


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    pass


# every label type the encoding takes, subclasses included
LABELS = st.one_of(
    st.text(max_size=12), st.integers(min_value=-2**80, max_value=2**300),
    st.booleans(), st.binary(max_size=12), st.none(),
    st.sampled_from(Level), st.text(max_size=6).map(Tag))


def test_substream_is_deterministic():
    a = rng.substream_u64(42, "work", "p0", 0, 17)
    b = rng.substream_u64(42, "work", "p0", 0, 17)
    assert a == b


def test_substream_depends_on_every_part():
    base = rng.substream_u64(42, "work", "p0", 0, 17)
    assert base != rng.substream_u64(43, "work", "p0", 0, 17)
    assert base != rng.substream_u64(42, "stake", "p0", 0, 17)
    assert base != rng.substream_u64(42, "work", "p1", 0, 17)
    assert base != rng.substream_u64(42, "work", "p0", 1, 17)
    assert base != rng.substream_u64(42, "work", "p0", 0, 18)


def test_part_boundaries_do_not_collide():
    # ("ab", "c") and ("a", "bc") must hash differently
    assert rng.substream_u64(1, "ab", "c") != rng.substream_u64(1, "a", "bc")
    assert rng.substream_u64(1, 12, 3) != rng.substream_u64(1, 1, 23)


def test_bool_and_int_labels_differ():
    assert rng.substream_u64(1, True) != rng.substream_u64(1, 1)
    assert rng.substream_u64(1, False) != rng.substream_u64(1, 0)


def test_subclassed_labels_encode_like_their_base_type():
    assert rng._encode((Level.LOW,)) == rng._encode((1,))
    assert rng.substream_u64(1, Level.LOW) == rng.substream_u64(1, 1)
    assert rng._encode((Tag("work"),)) == rng._encode(("work",))


def test_uniform_int_bounds():
    values = {rng.uniform_int(9, 1, 4, "delay", "a", "b", i)
              for i in range(400)}
    assert values <= {1, 2, 3, 4}
    assert values == {1, 2, 3, 4}  # 400 draws over 4 cells miss nothing


def test_threshold_draw_rate_on_grid():
    """Empirical grant frequency tracks the exact threshold within 3 sigma.

    This pins the (draw / 2**64) < threshold convention the permitters
    rely on: each of 10**4 keyed draws is an independent Bernoulli with
    the threshold as its success probability.
    """
    n = 10_000
    for num, den in [(0, 1), (1, 10), (1, 4), (1, 2), (1, 1)]:
        threshold = Fraction(num, den)
        hits = sum(
            1 for i in range(n)
            if Fraction(rng.substream_u64(1234, "grid", num, den, i), 2**64)
            < threshold
        )
        p = float(threshold)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(hits - n * p) <= 3 * sigma + 1e-9, (num, den, hits)


@given(st.integers(min_value=0, max_value=2**64), st.lists(LABELS, max_size=7))
def test_a_prefix_draws_what_substream_draws(seed, labels):
    """Prefix(seed, *a).u64_of(encode(*b)) == substream_u64(seed, *a, *b)
    for every split of the label tuple into a and b."""
    expected = rng.substream_u64(seed, *labels)
    for split in range(len(labels) + 1):
        head, rest = labels[:split], labels[split:]
        prefix = rng.Prefix(seed, *head)
        encoded = rng.encode(*rest)
        assert prefix.u64_of(encoded) == expected
        assert prefix.u64_of(encoded) == expected  # a draw leaves the state
