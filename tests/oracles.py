"""Independent constructions the tests check the library against.

These are oracles only; no library code calls them.

* cycle_matrix and boundary_generators build the whole boundary
  representation on l^2({m in Z_+^{n-1}}) (x) C^M as Kronecker products:
  the first generator is a diagonal q-weight tensored with the M-cycle
  shift (all M-th roots of unity at once).  The library evaluates one
  character block per omega instead (boundary_block_generators).
* circle_grid_max evaluates an n = 1 polynomial as an ordinary function on
  the circle.
"""

import cmath

import numpy as np
import scipy.sparse as sp

from qball.representations import (
    BoundaryConfig,
    RepMatrices,
    _fock_raising,
    graded_lex_basis,
)


def cycle_matrix(M: int) -> sp.csr_matrix:
    """The M-cycle permutation shift e_t -> e_{t+1 mod M}."""
    rows = [(t + 1) % M for t in range(M)]
    return sp.csr_matrix((np.ones(M, dtype=complex), (rows, range(M))),
                         shape=(M, M))


def boundary_generators(cfg: BoundaryConfig) -> RepMatrices:
    """Boundary-family representation annihilating the sphere relation.

    For n = 1 this is just the unitary M-cycle (exact, no truncation).
    """
    if cfg.n == 1:
        mats = [cycle_matrix(cfg.M)]
        return RepMatrices(n=1, mats=mats, dim=cfg.M,
                           levels=np.zeros(cfg.M, dtype=int), cutoff=None)
    basis = graded_lex_basis(cfg.n - 1, cfg.N)
    index = {m: i for i, m in enumerate(basis)}
    dim0 = len(basis)
    weights = sp.diags([cfg.q_val ** sum(m) for m in basis], format="csr",
                       dtype=complex)
    mats = [sp.kron(weights, cycle_matrix(cfg.M), format="csr")]
    eye_m = sp.identity(cfg.M, dtype=complex, format="csr")
    for j in range(2, cfg.n + 1):
        # Fock action in the variables (m_2, ..., m_n): generator j sits at
        # slot j-1 of the (n-1)-index.
        raising = _fock_raising(basis, index, j - 1, cfg.n - 1, cfg.N, cfg.q_val)
        mats.append(sp.kron(raising, eye_m, format="csr"))
    levels = np.repeat([sum(m) for m in basis], cfg.M)
    return RepMatrices(n=cfg.n, mats=mats, dim=dim0 * cfg.M,
                       levels=np.asarray(levels, dtype=int), cutoff=cfg.N)


def _circle_word_value(word, z: complex) -> complex:
    out = 1 + 0j
    for letter in word:
        out *= z.conjugate() if letter.starred else z
    return out


def circle_grid_max(f, q_val: float, points: int) -> float:
    """Classical oracle for n = 1: max of |f(e^{i theta})| on a theta grid.

    Evaluates f as an ordinary function on the circle (z* -> conjugate),
    fully independent of the representation machinery.
    """
    if f.n != 1:
        raise ValueError("the circle oracle only applies to n = 1")
    best = 0.0
    for t in range(points):
        z = cmath.exp(2j * cmath.pi * t / points)
        total = 0j
        for word in sorted(f.terms, key=lambda w: (len(w), w)):
            total += f.terms[word].evaluate(q_val) * _circle_word_value(word, z)
        best = max(best, abs(total))
    return best
