"""Independent constructions the tests check the library against.

These are oracles only; no library code calls them.

* cycle_matrix and boundary_generators build the whole boundary
  representation on l^2({m in Z_+^{n-1}}) (x) C^M as Kronecker products:
  the first generator is a diagonal q-weight tensored with the M-cycle
  shift (all M-th roots of unity at once), and only then turns each
  generator into the weighted index map the library evaluates (matrix_map).
  The library evaluates one character block per omega instead
  (boundary_block_generators).
* reference_raising is the Fock raising map built one basis vector at a
  time (a dict index, Python float powers); reference_fock_maps builds
  every generator of fock_generators from it, and reference_stratum_maps
  every generator of stratum k (k = 1: boundary_block_generators), the
  zero maps and the diagonal of z_k included.  The library builds each
  map from arrays (targets read off the graded order of the basis rows,
  one table of powers).
* reference_dense_block is the evaluation loop rep_entries replaced: each
  word's entries added into a zero dense block by +=, in the same word
  order; rep_entries sums in that order but stores only the nonzeros.
  reference_stack is the per-part path rep_entries replaced: one dense
  block per part, stacked at the union of their nonzero positions
  (entries_of, also the way dense test inputs reach operator_norm).
* reference_schedules is the per-point loop norms._schedules replaced:
  at every schedule point it builds both representations at that N,
  evaluates the whole certified block and takes its norm over the whole
  grid.  The library builds once per schedule, at the last N, and takes
  each point's block as a restriction of that one.  Both take the same
  per-input decision, norms.gauge: whether one block is the whole circle,
  the angles for the Fock block and the axis for the boundary nodes.  The
  oracle splits the words by z1-charge after dropping those whose float
  coefficient value is 0; the library drops those whose exact numerators
  are.  gauged_block applies the angles to a dense block, tile by tile;
  the library applies them to the maps and to the stack's values
  (norms._nested_values).
* reference_invariant decides omega-invariance by a rank test, by
  Fraction elimination on the differences of the words' vectors
  v(w) = (charges, e_a, -e_b), each word kept only if its coefficient,
  summed exactly at the Fraction of the float q, is not 0.  The library
  reads the answer off the integer echelon form that also gives the
  gauge angles (norms.gauge).
* reference_pbw_gram is the PBW Gram probe pbw_gram_min_singular replaced:
  every canonical monomial's full dense Fock matrix flattened into one
  column of V, one SVD of all of V.  The library takes one SVD per charge
  class instead.
* circle_grid_max evaluates an n = 1 polynomial as an ordinary function on
  the circle.
* fraction_terms and fraction_poly convert between an NCPoly and reference
  terms, each coefficient a map {exponent: (re, im)} of Fractions;
  fraction_constant builds a scalar from Fraction parts.  The library
  holds Gaussian-integer numerators over one common denominator instead
  (algebra.NCPoly).
* fraction_value evaluates a reference coefficient at a numeric q (exact
  in rationals, rounded once), and
  reference_step applies one rewrite rule instance with Fraction
  arithmetic on those terms.
* fraction_print_poly renders a polynomial from its Fraction coefficients,
  one Gaussian rational at a time.  The library prints from Gaussian-integer
  numerators over one common denominator instead (parsing.print_state).
"""

import cmath
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from qball.algebra import Letter, MatPoly, NCPoly, Word
from qball.norms import (
    NormEstimate,
    SchedulePoint,
    _charges,
    _check_trunc,
    gauge,
    operator_norm,
)
from qball.representations import (
    BoundaryConfig,
    Entries,
    FockConfig,
    RepMatrices,
    boundary_block_generators,
    certify_compression,
    fock_generators,
    graded_lex_basis,
    rep_apply,
    rep_entries,
)
from qball.rewrite import apply_rule, canonical_monomials, rule_sites
from qball.scalars import coefficient_value


def cycle_matrix(M: int) -> sp.csr_matrix:
    """The M-cycle permutation shift e_t -> e_{t+1 mod M}."""
    rows = [(t + 1) % M for t in range(M)]
    return sp.csr_matrix((np.ones(M, dtype=complex), (rows, range(M))),
                         shape=(M, M))


def matrix_map(mat: sp.spmatrix) -> Tuple[np.ndarray, np.ndarray]:
    """A square matrix with at most one nonzero per column, and no two in
    one row, as a weighted index map (target, weight); a zero column goes
    to the sink dim."""
    csc = sp.csc_matrix(mat)
    csc.eliminate_zeros()
    counts = np.diff(csc.indptr)
    assert counts.max(initial=0) <= 1, "a column with two nonzeros"
    assert len(set(csc.indices)) == len(csc.indices), "a row with two nonzeros"
    dim = csc.shape[0]
    cols = np.nonzero(counts)[0]
    target = np.full(dim + 1, dim)
    weight = np.zeros(dim + 1, dtype=complex)
    target[cols], weight[cols] = csc.indices, csc.data
    return target, weight


def map_matrix(target: np.ndarray, weight: np.ndarray) -> sp.csr_matrix:
    """The matrix of a weighted index map, its sink dropped."""
    dim = len(target) - 1
    cols = np.nonzero(target[:dim] != dim)[0]
    return sp.csr_matrix((weight[cols], (target[cols], cols)), shape=(dim, dim))


def reference_raising(basis: List[Tuple[int, ...]],
                      index: Dict[Tuple[int, ...], int], j: int, n: int,
                      N: int, q_val: float) -> Tuple[np.ndarray, np.ndarray]:
    """Map of e_m -> q^{sum_{k>j} m_k} sqrt(1-q^{2(m_j+1)}) e_{m+delta_j},
    one basis vector at a time."""
    dim = len(basis)
    target, weight = np.full(dim + 1, dim), np.zeros(dim + 1, dtype=complex)
    for col, m in enumerate(basis):
        if sum(m) >= N:
            continue
        phase = q_val ** sum(m[k] for k in range(j, n))
        target[col] = index[m[:j - 1] + (m[j - 1] + 1,) + m[j:]]
        weight[col] = phase * np.sqrt(1.0 - q_val ** (2 * (m[j - 1] + 1)))
    return target, weight


def reference_fock_maps(n: int, N: int, q_val: float):
    """The raising maps of the Fock representation on |m| <= N."""
    basis = graded_lex_basis(n, N)
    index = {m: i for i, m in enumerate(basis)}
    return [reference_raising(basis, index, j, n, N, q_val)
            for j in range(1, n + 1)]


def reference_stratum_maps(n: int, N: int, q_val: float, k: int,
                           omega: complex = 1.0):
    """The maps of stratum k on the Fock basis of the n - k variables
    (m_{k+1}, ..., m_n), |m| <= N, one basis vector at a time: z_j for
    j < k sends every vector to the sink with weight 0, z_k is the
    diagonal omega * q^|m| (the 1 x 1 block omega for k = n), and
    z_{k+1}..z_n are the Fock maps of n - k variables."""
    levels = [sum(m) for m in graded_lex_basis(n - k, N)]
    dim = len(levels)
    zero = (np.full(dim + 1, dim), np.zeros(dim + 1, dtype=complex))
    diagonal = (np.arange(dim + 1), np.array(
        [omega * q_val ** level for level in levels] + [0], dtype=complex))
    return ([zero] * (k - 1) + [diagonal] * (k > 0)
            + reference_fock_maps(n - k, N, q_val))


def boundary_generators(cfg: BoundaryConfig) -> RepMatrices:
    """Boundary-family representation annihilating the sphere relation.

    For n = 1 this is just the unitary M-cycle: every vector has level 0,
    and the cutoff is N, as at every n.
    """
    if cfg.n == 1:
        return RepMatrices(n=1, maps=[matrix_map(cycle_matrix(cfg.M))],
                           dim=cfg.M, levels=np.zeros(cfg.M, dtype=int),
                           cutoff=cfg.N)
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
        raising = map_matrix(*reference_raising(basis, index, j - 1,
                                                cfg.n - 1, cfg.N, cfg.q_val))
        mats.append(sp.kron(raising, eye_m, format="csr"))
    levels = np.repeat([sum(m) for m in basis], cfg.M)
    return RepMatrices(n=cfg.n, maps=[matrix_map(m) for m in mats],
                       dim=dim0 * cfg.M,
                       levels=np.asarray(levels, dtype=int), cutoff=cfg.N)


def reference_dense_block(f, rep: RepMatrices, q_val: float,
                          indices: Optional[np.ndarray] = None) -> np.ndarray:
    """The dense block of f (a polynomial or a MatPoly) in rep on indices:
    entry (a, b) at rows a*r.. and columns b*r.., each word's map composed
    from the right and its entries added into zeros by +=, words by
    (length, word).  Real (float64) when every map and every coefficient
    value is real, else complex."""
    F = MatPoly.of(f)
    cols = np.arange(rep.dim) if indices is None else np.asarray(indices)
    r = len(cols)
    pos = np.full(rep.dim + 1, -1)
    pos[cols] = np.arange(r)
    adjoints = []
    for target, weight in rep.maps:
        live = np.nonzero(target[:rep.dim] < rep.dim)[0]
        inverse = np.full(rep.dim + 1, rep.dim)
        conj = np.zeros(rep.dim + 1, dtype=weight.dtype)
        inverse[target[live]], conj[target[live]] = live, weight[live].conj()
        adjoints.append((inverse, conj))
    values = {(a, b, word): coefficient_value(p.terms[word], p.den, q_val)
              for a, row in enumerate(F.entries)
              for b, p in enumerate(row) for word in p.terms}
    real = (all(v.imag == 0 for v in values.values())
            and all(w.dtype == float for _, w in rep.maps))
    dtype = float if real else complex
    out = np.zeros((F.shape[0] * r, F.shape[1] * r), dtype=dtype)
    for a, row in enumerate(F.entries):
        for b, p in enumerate(row):
            for word in sorted(p.terms, key=lambda w: (len(w), w)):
                target, weight = cols, np.ones(r, dtype=dtype)
                for letter in reversed(word):
                    maps = adjoints if letter.starred else rep.maps
                    t, w = maps[letter.index - 1]
                    target, weight = t[target], w[target] * weight
                rows = pos[target]
                keep = np.nonzero(rows >= 0)[0]
                value = values[a, b, word]
                out[a * r + rows[keep], b * r + keep] += (
                    value.real if real else value) * weight[keep]
    return out


def entries_of(A) -> Entries:
    """A dense matrix, a D x r x c stack of them, or a scipy sparse matrix
    (through its toarray()) as Entries: the values of every matrix at the
    positions where any is nonzero, row-major."""
    stack = np.asarray(A.toarray() if hasattr(A, "toarray") else A)
    if stack.ndim == 2:
        stack = stack[None]
    rows, cols = np.nonzero(np.any(stack != 0, axis=0))
    return Entries(rows, cols, stack[:, rows, cols], stack.shape[-2:])


def reference_stack(parts, rep: RepMatrices, q_val: float,
                    indices: Optional[np.ndarray] = None) -> Entries:
    """The parts' dense blocks (reference_dense_block) stacked at the union
    of their nonzero positions."""
    return entries_of(np.stack([reference_dense_block(p, rep, q_val, indices)
                                for p in parts]))


def reference_pbw_gram(n: int, max_degree: int, N: int, q_val: float) -> float:
    """Smallest singular value of the Gram matrix of the canonical
    monomials (degree <= max_degree) realized as truncated Fock matrices."""
    rep = fock_generators(FockConfig(n=n, N=N, q_val=q_val))
    V = np.column_stack([rep_apply(NCPoly.from_word(n, word), rep, q_val).ravel()
                         for word in canonical_monomials(n, max_degree)])
    # sigma_min(V^H V) = sigma_min(V)^2, without squaring V's condition number
    s = np.linalg.svd(V, compute_uv=False)
    return float(s[-1] ** 2) if len(s) == V.shape[1] else 0.0


def gauged_block(F: MatPoly, rep: RepMatrices, q_val: float,
                 indices: np.ndarray, beta: Sequence[float]) -> np.ndarray:
    """The dense block of F in rep, with the map of z_j times e^{i beta_j}
    and each k x l tile times its row, column and constant phase: real up
    to rounding when beta is a real gauge of F (norms.gauge)."""
    k, l = F.shape
    rows, cols = beta[F.n:F.n + k], beta[F.n + k:F.n + k + l]
    gauged = RepMatrices(rep.n, [(t, w * z) for (t, w), z in
                                 zip(rep.maps, np.exp(1j * np.asarray(beta)))],
                         rep.dim, rep.levels, rep.cutoff)
    return np.block([[rep_apply(p, gauged, q_val, indices)
                      * cmath.exp(1j * (rows[a] - cols[b] + beta[-1]))
                      for b, p in enumerate(row)]
                     for a, row in enumerate(F.entries)])


def reference_fock_value(f: Union[NCPoly, MatPoly], q_val: float, N: int,
                         tol: float, beta: Optional[Sequence[float]] = None
                         ) -> float:
    """The certified Fock value of f at one N, built and evaluated whole;
    with gauge angles beta, the real part of the gauged block."""
    F = MatPoly.of(f)
    degree = F.degree()
    _check_trunc(N, degree)
    rep = fock_generators(FockConfig(F.n, N, q_val))
    indices = certify_compression(rep, degree)
    if beta is None:
        return operator_norm(rep_entries([F], rep, q_val, indices), tol)
    return operator_norm(
        entries_of(gauged_block(F, rep, q_val, indices, beta).real), tol)


def reference_schedules(f: Union[NCPoly, MatPoly], q_val: float,
                        schedule: Sequence[SchedulePoint], tol: float,
                        ball: bool
                        ) -> Tuple[Optional[NormEstimate], NormEstimate]:
    """Ball (if asked) and boundary schedules of f, one point at a time:
    each point builds its own omega = 1 block and Fock representation and
    takes the norm of the whole certified block (gauged real when gauge
    gives angles) over its whole grid (the half grid about the axis when
    gauge gives one).  The charge split and K take only the words whose
    coefficient value at q_val is not 0."""
    if not schedule:
        raise ValueError("empty schedule")
    F = MatPoly.of(f)
    L = F.degree()
    M0 = schedule[0][1]
    invariant, beta, axis = gauge(F, q_val, M0)
    charge = {(a, b, word): _charges(word, F.n)[0]
              for a, row in enumerate(F.entries) for b, p in enumerate(row)
              for word, c in p.terms.items()
              if coefficient_value(c, p.den, q_val) != 0}
    order = sorted(set(charge.values())) or [0]
    parts = [MatPoly([[NCPoly(F.n, {w: c for w, c in p.terms.items()
                                    if charge.get((a, b, w)) == d}, p.den)
                       for b, p in enumerate(row)]
                      for a, row in enumerate(F.entries)]) for d in order]
    K = (order[-1] - order[0]) / 2
    bdry, upper, fock = [], [], []
    for N, M in schedule:
        rep = boundary_block_generators(
            BoundaryConfig(n=F.n, N=N, M=M, q_val=q_val), 1.0)
        _check_trunc(N, L)
        indices = certify_compression(rep, L)
        A = rep_entries(parts, rep, q_val, indices)
        if invariant:
            phases = None
        else:
            # the nodes 0 <= 2t - s <= M about the axis s, else all M;
            # exp(2 pi i (t d mod M) / M): nested grids share exact phases
            s = None if axis is None else axis * M // M0
            grid = [t for t in range(M) if s is None or 0 <= 2 * t - s <= M]
            phases = np.exp(2j * np.pi * (np.outer(grid, order) % M) / M)
        value = operator_norm(A, tol, phases)
        bdry.append(value)
        bound = value / (1 - np.pi * K / M) if M > np.pi * K else None
        upper.append(value if invariant else bound)
        if ball:
            fock.append(reference_fock_value(F, q_val, N, tol, beta))
    params = [{"N": N, "M": M} for N, M in schedule]
    boundary = NormEstimate.from_values(
        params, bdry, tol, {"invariant": invariant, "circle_upper": upper})
    if not ball:
        return None, boundary
    values = [max(a, b) for a, b in zip(fock, bdry)]
    omega = {"invariant": invariant, "circle_upper": [
        None if u is None else max(a, u) for a, u in zip(fock, upper)]}
    return NormEstimate.from_values(params, values, tol, omega), boundary


def reference_invariant(F: MatPoly, q_val: float) -> bool:
    """Whether e_1 is outside the rational span of the differences
    v(w) - v(w0), v(w) = (charges of w, e_a, -e_b) for a word w in entry
    (a, b), over the words whose exact coefficient at Fraction(q_val) is
    not 0: by Fraction Gaussian elimination, e_1 is in the span iff adding
    it leaves the rank the same."""
    k, l = F.shape
    q = Fraction(q_val)
    vectors = []
    for a, row in enumerate(F.entries):
        for b, p in enumerate(row):
            for word, coeff in fraction_terms(p).items():
                if any(sum(part[i] * q ** e for e, part in coeff.items())
                       for i in (0, 1)):
                    vectors.append(
                        [sum(-1 if x.starred else 1 for x in word
                             if x.index == j) for j in range(1, F.n + 1)]
                        + [int(i == a) for i in range(k)]
                        + [-int(i == b) for i in range(l)])
    differences = [[Fraction(x - y) for x, y in zip(v, vectors[0])]
                   for v in vectors[1:]]
    e1 = [Fraction(int(j == 0)) for j in range(F.n + k + l)]
    return _rank(differences + [e1]) > _rank(differences)


def _rank(rows: List[List[Fraction]]) -> int:
    """The rank of a list of Fraction rows, by Gaussian elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][j] / rows[rank][j]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# -- Fraction reference arithmetic ------------------------------------

# A Gaussian rational (re, im), a reference coefficient {exponent: Gauss}
# with no zero entry, and reference terms {word: coefficient}.
Gauss = Tuple[Fraction, Fraction]
Coefficient = Dict[int, Gauss]
Terms = Dict[Word, Coefficient]


def fraction_terms(p: NCPoly) -> Terms:
    """p's coefficients as Fractions, one division per part."""
    return {word: {k: (Fraction(re.get(k, 0), p.den),
                       Fraction(im.get(k, 0), p.den))
                   for k in re.keys() | im.keys()}
            for word, (re, im) in p.terms.items()}


def fraction_poly(n: int, terms: Terms) -> NCPoly:
    """The polynomial of reference terms: every part brought to the lcm of
    the denominators."""
    den = 1
    for coeff in terms.values():
        for re, im in coeff.values():
            den = lcm(den, re.denominator, im.denominator)
    return NCPoly(n, {
        word: ({k: int(re * den) for k, (re, _) in coeff.items()},
               {k: int(im * den) for k, (_, im) in coeff.items()})
        for word, coeff in terms.items()}, den)


def fraction_constant(n: int, *terms) -> NCPoly:
    """The scalar sum of (re + i*im) q^k over (k, re, im) triples, each part
    anything Fraction takes ("3/4" included)."""
    return fraction_poly(n, {(): {k: (Fraction(re), Fraction(im))
                                  for k, re, im in terms}})


def fraction_value(coeff: Coefficient, q_val: float) -> complex:
    """A reference coefficient at q_val: each part summed exactly (q as the
    Fraction of its float) and rounded once."""
    q = Fraction(q_val)
    return complex(float(sum(re * q ** k for k, (re, _) in coeff.items())),
                   float(sum(im * q ** k for k, (_, im) in coeff.items())))


def reference_step(p: NCPoly, ctx, strategy: str, rng) -> NCPoly:
    """One rule instance applied to one word of p; p itself at a fixed point.

    The candidates are the words in (length, word) order, each with its
    rule_sites; leftmost takes the first, rightmost the last and random
    draws one with rng.choice.
    """
    terms = fraction_terms(p)
    candidates = [(word, site)
                  for word in sorted(terms, key=lambda w: (len(w), w))
                  for site in rule_sites(word, ctx)]
    if not candidates:
        return p
    if strategy == "leftmost":
        word, pos = candidates[0]
    elif strategy == "rightmost":
        word, pos = candidates[-1]
    else:
        word, pos = rng.choice(candidates)
    coeff = terms.pop(word)
    zero = (Fraction(0), Fraction(0))
    for lp, w in apply_rule(word, pos, ctx.n):
        target = terms.setdefault(w, {})
        for k1, (re, im) in coeff.items():
            for k2, c in lp.items():
                old_re, old_im = target.get(k1 + k2, zero)
                new = (old_re + re * c, old_im + im * c)
                if new != zero:
                    target[k1 + k2] = new
                else:
                    target.pop(k1 + k2, None)
        if not target:
            del terms[w]
    return fraction_poly(ctx.n, terms)


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
    coeffs = fraction_terms(f)
    best = 0.0
    for t in range(points):
        z = cmath.exp(2j * cmath.pi * t / points)
        total = 0j
        for word in sorted(coeffs, key=lambda w: (len(w), w)):
            total += (fraction_value(coeffs[word], q_val)
                      * _circle_word_value(word, z))
        best = max(best, abs(total))
    return best


# -- the Fraction printer ---------------------------------------------

def _rat_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _q_str(exponent: int) -> str:
    return "q" if exponent == 1 else f"q^{exponent}"


def _gauss_str(c: Gauss) -> str:
    """Both parts nonzero: 'a/b+c/d*i' (goes inside parentheses)."""
    re, im = c
    im_mag = abs(im)
    im_txt = "i" if im_mag == 1 else f"{_rat_str(im_mag)}*i"
    joiner = "+" if im > 0 else "-"
    return f"{_rat_str(re)}{joiner}{im_txt}"


def _mono_str(exponent: int, c: Gauss) -> Tuple[bool, Optional[str]]:
    """(sign, text) for a single q-term; text None means the factor 1."""
    re, im = c
    if im == 0:
        sign = re < 0
        mag = abs(re)
        pieces = []
        if mag != 1:
            pieces.append(_rat_str(mag))
        if exponent:
            pieces.append(_q_str(exponent))
        return sign, "*".join(pieces) or None
    if re == 0:
        sign = im < 0
        mag = abs(im)
        pieces = [] if mag == 1 else [_rat_str(mag)]
        pieces.append("i")
        if exponent:
            pieces.append(_q_str(exponent))
        return sign, "*".join(pieces)
    text = f"({_gauss_str(c)})"
    if exponent:
        text += f"*{_q_str(exponent)}"
    return False, text


def _scalar_sum_str(s: Coefficient) -> str:
    parts = []
    for k, c in sorted(s.items()):
        sign, text = _mono_str(k, c)
        if text is None:
            text = "1"
        if not parts:
            parts.append(("-" if sign else "") + text)
        else:
            parts.append(("- " if sign else "+ ") + text)
    return " ".join(parts)


def _scalar_factor(s: Coefficient) -> Tuple[bool, Optional[str]]:
    if len(s) == 1:
        return _mono_str(*next(iter(s.items())))
    return False, f"({_scalar_sum_str(s)})"


def _word_str(word: Word) -> Optional[str]:
    if not word:
        return None
    runs: List[Tuple[Letter, int]] = []
    for letter in word:
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + 1)
        else:
            runs.append((letter, 1))
    return "*".join(str(l) if e == 1 else f"{l}^{e}" for l, e in runs)


def fraction_print_poly(p: NCPoly) -> str:
    """Render a polynomial; parse_expression inverts this exactly."""
    if p.is_zero():
        return "0"
    terms = fraction_terms(p)
    parts = []
    for word in sorted(terms, key=lambda w: (len(w), w)):
        sign, stxt = _scalar_factor(terms[word])
        wtxt = _word_str(word)
        text = "*".join(t for t in (stxt, wtxt) if t) or "1"
        if not parts:
            parts.append(("-" if sign else "") + text)
        else:
            parts.append(("- " if sign else "+ ") + text)
    return " ".join(parts)
