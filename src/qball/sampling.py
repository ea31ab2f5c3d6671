"""Seeded random polynomial generators: the input stream of
confluence-fuzz, and random inputs for the tests.

Each draw takes the bits that Random.randint or Random.random takes for
it, in the same order, so a seed gives the same polynomials and leaves the
same generator state.  _randint(rng.getrandbits, a, b), an integer in
[a, b], draws k bits, k the bit length of w = b - a + 1, and draws them
again while they are at least w, as Random.randint does through
Random._randbelow; so a range of one integer still draws.  Whether a
letter is starred is rng.random() < 0.5, drawn after its index.
"""

from __future__ import annotations

import random
from math import lcm
from typing import Callable, List, Tuple

from .algebra import Letter, NCPoly, _addmul


def _randint(getrandbits: Callable[[int], int], a: int, b: int) -> int:
    """Random.randint(a, b) for the generator of getrandbits."""
    width = b - a + 1
    if width < 1:
        raise ValueError(f"empty range for randint({a}, {b})")
    k = width.bit_length()
    r = getrandbits(k)
    while r >= width:
        r = getrandbits(k)
    return a + r


def random_poly(rng: random.Random, n: int, max_degree: int = 4,
                max_terms: int = 4, star_free: bool = False) -> NCPoly:
    """The sum of 1 to max_terms terms (a/b + c*i) q^k * word, each with a
    small nonzero a/b + c*i and a word of at most max_degree letters,
    starred at random unless star_free; built in place over the lcm of the
    b drawn, which rescales the terms before it only when it grows."""
    bits, coin = rng.getrandbits, rng.random
    letters = [(Letter(j, False), Letter(j, True)) for j in range(1, n + 1)]
    state, den = {}, 1
    for _ in range(_randint(bits, 1, max_terms)):
        word = tuple(letters[_randint(bits, 0, n - 1)]
                     [not star_free and coin() < 0.5]
                     for _ in range(_randint(bits, 0, max_degree)))
        a = c = 0
        while not (a or c):
            a, b, c = (_randint(bits, -3, 3), _randint(bits, 1, 3),
                       _randint(bits, -2, 2))
        k = _randint(bits, -2, 2)
        if (new := lcm(den, b)) != den:
            scale, den = new // den, new
            for coeff in state.values():
                for part in coeff:
                    for e in part:
                        part[e] *= scale
        _addmul(state, word, {0: den // b},
                ({k: a} if a else {}, {k: b * c} if c else {}))
    return NCPoly(n, state, den)


def random_poly_stream(seed: int, count: int, n_max: int = 3,
                       max_degree: int = 4) -> List[Tuple[int, NCPoly]]:
    """Deterministic stream of (n, polynomial) pairs for fuzzing."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = _randint(rng.getrandbits, 1, n_max)
        out.append((n, random_poly(rng, n, max_degree)))
    return out
