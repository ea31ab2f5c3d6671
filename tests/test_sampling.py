"""The seeded fuzz stream is pinned: the benchmark and confluence-fuzz only
count disagreements, so a changed stream would otherwise go unnoticed."""

import hashlib

from qball.parsing import print_poly
from qball.sampling import random_poly_stream

# sha256 of the printed stream for seeds 1-40, 16 polynomials each.
STREAM_SHA256 = \
    "8f4f99e453d3585d84e9f6c258f3c0f0fbed8896416eada163cab145ec128225"


def test_fuzz_stream_is_pinned():
    text = "".join(f"{n}\t{print_poly(p)}\n" for seed in range(1, 41)
                   for n, p in random_poly_stream(seed, 16))
    assert hashlib.sha256(text.encode()).hexdigest() == STREAM_SHA256
