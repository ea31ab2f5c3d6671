"""The seeded fuzz stream and the random test inputs are pinned: the
benchmark and confluence-fuzz only count disagreements, so a changed
stream would otherwise go unnoticed."""

import hashlib
import random
import signal

import pytest

from qball.parsing import print_poly
from qball.sampling import _randint, random_poly, random_poly_stream

# sha256 of the printed stream for seeds 1-40, 16 polynomials each.
STREAM_SHA256 = \
    "8f4f99e453d3585d84e9f6c258f3c0f0fbed8896416eada163cab145ec128225"

# sha256 of the random_poly draws below and the generator state each seed
# leaves, for every n, max_degree and star_free the tests draw with.
POLY_SHA256 = \
    "724613913b2845824315742ac3e00e105849bfc5c595e7a81db7aa4ab11ede54"


def test_fuzz_stream_is_pinned():
    text = "".join(f"{n}\t{print_poly(p)}\n" for seed in range(1, 41)
                   for n, p in random_poly_stream(seed, 16))
    assert hashlib.sha256(text.encode()).hexdigest() == STREAM_SHA256


def test_random_polys_are_pinned():
    lines = []
    for seed in range(1, 21):
        rng = random.Random(seed)
        for n in (1, 2, 3):
            for max_degree in (2, 3, 4):
                for star_free in (False, True):
                    for _ in range(4):
                        p = random_poly(rng, n, max_degree,
                                        star_free=star_free)
                        lines.append(f"{n} {max_degree} {star_free}\t"
                                     f"{print_poly(p)}\n")
        lines.append(f"{rng.getstate()}\n")
    text = "".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == POLY_SHA256


@pytest.mark.parametrize("width", range(1, 10))
def test_randint_draws_as_random_randint(width):
    for seed in range(60):
        for a in (-3, 0, 1):
            b = a + width - 1
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(12):
                assert _randint(ours.getrandbits, a, b) == \
                    theirs.randint(a, b)
                assert ours.getstate() == theirs.getstate()


def test_randint_rejects_an_empty_range():
    # getrandbits(0) is 0, so a draw from an empty range that went ahead
    # would never end; the alarm turns that into a failure.
    def hang(signum, frame):
        raise TimeoutError("_randint did not return on an empty range")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        for a, b in [(0, -1), (3, 2), (1, -5)]:
            with pytest.raises(ValueError, match="empty range"):
                random.Random(1).randint(a, b)
            with pytest.raises(ValueError, match="empty range"):
                _randint(random.Random(1).getrandbits, a, b)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
