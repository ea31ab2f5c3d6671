"""Seeded random polynomial generators and the fixed experiment catalog."""

from __future__ import annotations

import random
from typing import List, Tuple

from .algebra import Letter, Lifted, NCPoly, Word, add_lifted


def random_term(rng: random.Random, word: Word) -> Lifted:
    """(a/b + c*i) q^k * word with small nonzero a/b + c*i, as a lifted
    state over b."""
    while True:
        a, b, c = rng.randint(-3, 3), rng.randint(1, 3), rng.randint(-2, 2)
        if a or c:
            break
    k = rng.randint(-2, 2)
    return {word: ({k: a} if a else {}, {k: b * c} if c else {})}, b


def random_word(rng: random.Random, n: int, max_degree: int,
                star_free: bool = False) -> Word:
    length = rng.randint(0, max_degree)
    return tuple(
        Letter(rng.randint(1, n), False if star_free else rng.random() < 0.5)
        for _ in range(length))


def random_poly(rng: random.Random, n: int, max_degree: int = 4,
                max_terms: int = 4, star_free: bool = False) -> NCPoly:
    acc: Lifted = ({}, 1)
    for _ in range(rng.randint(1, max_terms)):
        word = random_word(rng, n, max_degree, star_free)
        acc = add_lifted(acc, random_term(rng, word))
    return NCPoly(n, *acc)


def random_poly_stream(seed: int, count: int, n_max: int = 3,
                       max_degree: int = 4) -> List[Tuple[int, NCPoly]]:
    """Deterministic stream of (n, polynomial) pairs for fuzzing."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, n_max)
        out.append((n, random_poly(rng, n, max_degree)))
    return out


CATALOG_SEED = 7


def holomorphic_catalog() -> List[Tuple[str, int, NCPoly]]:
    """The fixed star-free catalog: named entries plus seeded random ones."""
    from .parsing import parse_expression, print_poly

    entries: List[Tuple[str, int, NCPoly]] = []
    for text, n in [("1+z1", 1), ("z1+z2", 2), ("z1*z2+q*z2^2", 2)]:
        entries.append((text, n, parse_expression(text, n)))
    rng = random.Random(CATALOG_SEED)
    for _ in range(3):
        p = random_poly(rng, 2, max_degree=3, star_free=True)
        while p.is_zero():
            p = random_poly(rng, 2, max_degree=3, star_free=True)
        entries.append((print_poly(p), 2, p))
    return entries
