"""Certified norm estimation and the maximum-principle experiment layer.

All reported values are certified lower bounds for the C*-norm: a truncated
operator compressed to the subspace where truncation provably has no effect
is a genuine compression of the untruncated operator, so its norm can only
grow as the truncation parameters increase.

The norm of the ball algebra is taken as the sup over the implemented
norming family (Fock plus the boundary family); the boundary norm uses the
boundary family alone.

Every top singular value comes from one kernel, operator_norm.  Each Fock
basis vector is a weight vector of the gauge torus z_j -> lambda_j z_j, so
a certified block is a permuted direct sum of small blocks: the kernel
splits it into the connected components of its structural nonzeros
(exact zeros only, no threshold; labelled in numpy by hook and compress)
and takes the max of their norms.  Components of up to _DENSE_LIMIT = 2048
rows (or columns) go through batched LAPACK SVDs of about 1 MB each,
larger ones through scipy.sparse.linalg.svds; scipy (scipy.sparse and its
linalg) is imported only for such a component.

In the boundary character block of an M-th root of unity omega, z1 acts
as omega * D and the other generators do not depend on omega, so a word of
z1-charge d = #z1 - #z1' contributes omega^d times its omega = 1 matrix.  A
polynomial, or a k x l matrix of polynomials, is one trigonometric
polynomial sum_d omega^d A_d; the union sparsity pattern over d holds for
every omega, so one split of the stack serves all M blocks.  A polynomial
is the 1 x 1 case throughout: ball_norm and boundary_norm take either, so
matrix levels are these same calls on a MatPoly.

The gauge torus also acts on the boundary side.  When omega_invariant(F)
holds (an exact rank test on the charge vectors of F's words), every block
is a phase times a unitary conjugate of the omega = 1 block, so that one
block is evaluated and its value is the sup over the whole circle.  For
any other input a schedule reports, per point, the whole-circle upper
bound grid max / (1 - pi K / M) when M > pi K, where 2K is the spread of
the z1-charges (Bernstein's inequality; every angle lies within pi / M of
a node).  The bracket covers the omega discretisation at fixed N only.

Every schedule is one pass (_schedules).  Once per input it finds F's
degree, omega_invariant(F) and the split of F's words by z1-charge; per
point (N, M) it builds the omega = 1 block once, forms one compressed A_d
per charge, and takes the boundary value, its whole-circle bound and, for
the ball side, the Fock value.  A maximum-principle report is that one
pass with both sides; a single-point value is a one-point schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import AlgebraContext, MatPoly, NCPoly
from .representations import (
    BoundaryConfig,
    FockConfig,
    RepMatrices,
    TruncationError,
    boundary_block_generators,
    certify_compression,
    fock_generators,
    rep_apply,
)
from .rewrite import canonical_monomials, defining_relations

DEFAULT_TOL = 1e-8
_DENSE_LIMIT = 2048
_BATCH_BYTES = 1 << 20      # size of one stacked batch of components


class NormConvergenceError(RuntimeError):
    """Iterative norm computation failed to converge."""

    def __init__(self, message: str, last_value: float):
        super().__init__(message)
        self.last_value = last_value


def operator_norm(A, tol: float = DEFAULT_TOL,
                  phases: Optional[np.ndarray] = None) -> float:
    """Largest singular value of the block A, deterministic.

    With phases, A is a stack of D matrices A_d and the value is the max
    over t of the largest singular value of sum_d phases[t, d] * A_d.

    Rows and columns are labelled by the connected components of the
    bipartite graph of the structural nonzeros (A != 0; for a stack the
    union pattern over d, which holds for every t).  Permuted, each block
    is the direct sum of its components, so its norm is the max of theirs.
    The components of one shape, over as many t as fit in _BATCH_BYTES
    (at least one), go to one stacked LAPACK SVD; a component with more
    than _DENSE_LIMIT rows and columns goes to ARPACK (svds, k = 1) from
    the all-ones vector.  A zero or empty block gives 0; a scipy sparse A
    is read through its toarray().
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    stack = np.asarray(A.toarray() if hasattr(A, "toarray") else A)
    if phases is None:
        stack, phases = stack[None], np.ones((1, 1))
    r, c = stack.shape[1:]
    rows, cols = np.nonzero(np.any(stack != 0, axis=0))
    vals = stack[:, rows, cols]
    # row i is node i, column j is node r + j
    count, labels = _components(r + c, rows, r + cols)
    # position of each row (column) among the rows (columns) of its component
    part = np.concatenate([labels[:r], count + labels[r:]])
    order = np.argsort(part, kind="stable")
    sizes = np.bincount(part, minlength=2 * count)
    pos = np.empty(r + c, dtype=int)
    pos[order] = np.arange(r + c) - (np.cumsum(sizes) - sizes)[part[order]]
    n_rows, n_cols = sizes[:count], sizes[count:]
    comp, i, j = labels[rows], pos[rows], pos[r + cols]
    best = 0.0
    shape = n_rows * (c + 1) + n_cols         # one key per component shape
    for key in np.unique(shape[(n_rows > 0) & (n_cols > 0)]):
        a, b = divmod(int(key), c + 1)
        group = shape == key
        if min(a, b) > _DENSE_LIMIT:
            for k in np.nonzero(group)[0]:
                mine = comp == k
                for w in phases:
                    best = max(best, _svds_top(w @ vals[:, mine], i[mine],
                                               j[mine], (a, b), tol, best))
            continue
        slot, edges, size = np.cumsum(group) - 1, group[comp], group.sum()
        sub = np.zeros((len(vals), size, a, b), dtype=complex)
        sub[:, slot[comp[edges]], i[edges], j[edges]] = vals[:, edges]
        chunk = max(1, _BATCH_BYTES // sub[0].nbytes)
        for start in range(0, len(phases), chunk):
            blocks = np.einsum("md,dkij->mkij", phases[start:start + chunk], sub)
            top = np.linalg.svd(blocks, compute_uv=False)[..., 0]
            best = max(best, float(top.max()))
    return best


def _components(nodes: int, u: np.ndarray, v: np.ndarray
                ) -> Tuple[int, np.ndarray]:
    """Connected components of the graph on range(nodes) with edges
    (u[e], v[e]): their count and each node's label, numbered in the order
    of their smallest node.

    Hook and compress: each edge lowers the roots of both its ends to the
    smaller of the two, pointer jumping then flattens every tree, until no
    edge joins two roots.  A root only moves down, so each component ends
    rooted at its smallest node.
    """
    root = np.arange(nodes)
    while True:
        ru, rv = root[u], root[v]
        if np.array_equal(ru, rv):
            break
        low = np.minimum(ru, rv)
        np.minimum.at(root, ru, low)
        np.minimum.at(root, rv, low)
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
    smallest, labels = np.unique(root, return_inverse=True)
    return len(smallest), labels


def _svds_top(vals: np.ndarray, rows: np.ndarray, cols: np.ndarray,
              shape: Tuple[int, int], tol: float, best: float) -> float:
    """Top singular value of one large component, given by its nonzeros,
    by ARPACK from the all-ones vector."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import ArpackNoConvergence, svds

    block = csr_matrix((vals, (rows, cols)), shape=shape)
    try:
        return float(svds(block, k=1, tol=tol, v0=np.ones(min(block.shape)),
                          return_singular_vectors=False)[0])
    except ArpackNoConvergence as exc:
        raise NormConvergenceError(
            f"svds did not converge on a {block.shape[0]} x {block.shape[1]}"
            " component", best) from exc


# -- schedules and estimates ------------------------------------------

SchedulePoint = Tuple[int, int]          # (N, M)

DEFAULT_THETA = 1024


def make_schedule(trunc: Sequence[int], theta: Optional[int] = None) -> List[SchedulePoint]:
    """Pair a truncation schedule with nested theta grids.

    The final grid order is theta; each earlier point halves it while the
    result still divides theta, M_i = theta >> min(P - 1 - i, v2(theta))
    for P points, so every grid is a subgroup of the next and the resulting
    bounds are monotone.
    """
    if not trunc:
        raise ValueError("empty schedule")
    if list(trunc) != sorted(set(trunc)):
        raise ValueError("truncation schedule must be strictly increasing")
    final = theta if theta is not None else DEFAULT_THETA
    if final < 1:
        raise ValueError(f"theta must be at least 1, got {final}")
    halvings = (final & -final).bit_length() - 1  # v2(theta)
    last = len(trunc) - 1
    return [(int(N), final >> min(last - i, halvings))
            for i, N in enumerate(trunc)]


@dataclass
class NormEstimate:
    """Monotone sequence of certified lower bounds on a C*-norm."""

    points: List[dict]          # {"N": int, "M": int|None, "value": float}
    final: float
    stabilized: bool
    # {"invariant": bool, "circle_upper": [float | None per point]}: whether
    # one boundary block gave the whole circle, and an upper bound at each
    # point on the value over the whole circle at that N
    omega: Optional[dict] = None

    @staticmethod
    def from_values(params: Sequence[dict], values: Sequence[float],
                    tol: float, omega: Optional[dict] = None
                    ) -> "NormEstimate":
        pts = [dict(p, value=float(v)) for p, v in zip(params, values)]
        final = float(values[-1])
        stabilized = len(values) >= 2 and abs(values[-1] - values[-2]) < tol
        return NormEstimate(points=pts, final=final, stabilized=stabilized,
                            omega=omega)

    def values(self) -> List[float]:
        return [p["value"] for p in self.points]

    def is_monotone(self, slack: float = 1e-12) -> bool:
        vals = self.values()
        return all(b >= a - slack for a, b in zip(vals, vals[1:]))


# -- single-point certified values ------------------------------------

_FOCK_CACHE: dict = {}


def _fock_rep(n: int, N: int, q_val: float) -> RepMatrices:
    key = (n, N, q_val)
    rep = _FOCK_CACHE.get(key)
    if rep is None:
        rep = fock_generators(FockConfig(n=n, N=N, q_val=q_val))
        _FOCK_CACHE[key] = rep
    return rep


def _check_trunc(N: int, degree: int) -> None:
    if N < degree + 1:
        raise TruncationError(
            f"truncation too small: N={N} < deg+1={degree + 1}")


def _as_matrix(f: Union[NCPoly, MatPoly]) -> MatPoly:
    """f as a matrix of polynomials; a polynomial is the 1 x 1 case."""
    return f if isinstance(f, MatPoly) else MatPoly([[f]])


def fock_certified_value(f: Union[NCPoly, MatPoly], q_val: float, N: int,
                         tol: float = DEFAULT_TOL) -> float:
    """Certified lower bound for the Fock-representation norm of f."""
    F = _as_matrix(f)
    degree = F.degree()
    _check_trunc(N, degree)
    rep = _fock_rep(F.n, N, q_val)
    indices = certify_compression(rep, degree)
    blocks = [[rep_apply(p, rep, q_val, indices) for p in row]
              for row in F.entries]
    # np.block copies, which would double the peak memory of a large block
    return operator_norm(blocks[0][0] if F.shape == (1, 1)
                         else np.block(blocks), tol)


def _charge(word, j: int) -> int:
    """The z_j-charge #z_j - #z_j' of a word."""
    return sum(-1 if x.starred else 1 for x in word if x.index == j)


def _rank(vectors: List[List[int]]) -> int:
    """Rank over the rationals of integer vectors, by fraction-free
    elimination in Python integers (exact)."""
    basis: dict = {}            # pivot column -> row, zero at earlier pivots
    for row in vectors:
        for col, b in basis.items():
            if row[col]:
                row = [b[col] * x - row[col] * y for x, y in zip(row, b)]
        pivot = next((k for k, x in enumerate(row) if x), None)
        if pivot is not None:
            basis[pivot] = row
    return len(basis)


def omega_invariant(f: Union[NCPoly, MatPoly]) -> bool:
    """Whether every boundary block of f is a phase times a unitary
    conjugate of the omega = 1 block, so that block alone gives the sup
    over the whole circle.

    A word w in entry (a, b) of F has v(w) = (c(w), e_a, -e_b), where
    c_j(w) = #z_j - #z_j'.  F is invariant iff e_1 is not in the rational
    span of the differences v(w) - v(w0): then an integer (x, alpha, beta)
    with x_1 != 0 makes x.c(w) + alpha_a - beta_b one constant K.  With
    mu^{x_1} = omega, conjugating by diag(prod_{j>=2} mu^{-x_j m_{j-1}})
    (z_j -> mu^{-x_j} z_j for j >= 2) with row phases mu^{-alpha_a} and
    column phases mu^{beta_b} maps block(1) to mu^{-K} block(omega); these
    diagonal unitaries commute with the certified compression.  Decided by
    comparing two exact integer ranks; n = 1 and scalars are the small
    cases.
    """
    F = _as_matrix(f)
    k, l = F.shape
    vectors = sorted({
        tuple(_charge(word, j) for j in range(1, F.n + 1))
        + tuple(int(i == a) for i in range(k))
        + tuple(-int(i == b) for i in range(l))
        for a, row in enumerate(F.entries) for b, p in enumerate(row)
        for word in p.terms})
    if not vectors:
        return True
    diffs = [[x - y for x, y in zip(v, vectors[0])] for v in vectors[1:]]
    e1 = [1] + [0] * (len(vectors[0]) - 1)
    return _rank(diffs + [e1]) > _rank(diffs)


def relation_residual(rep: RepMatrices, ctx: AlgebraContext, q_val: float) -> float:
    """Max operator norm of (LHS - RHS) over the defining relations of ctx
    evaluated in rep, compressed to the certified subspace for two-letter
    words."""
    if ctx.n != rep.n:
        raise ValueError("context dimension mismatch")
    indices = certify_compression(rep, 2)
    return max((operator_norm(rep_apply(r, rep, q_val, indices))
                for r in defining_relations(ctx)), default=0.0)


# -- norm schedules ---------------------------------------------------

def _schedules(f: Union[NCPoly, MatPoly], q_val: float,
               schedule: Sequence[SchedulePoint], tol: float, ball: bool
               ) -> Tuple[Optional[NormEstimate], NormEstimate]:
    """Ball (if asked) and boundary schedules of f, in one pass (see the
    module docstring).  Entry (a, b) of A_d sits at rows a*r.., cols
    b*r..; the ball value is max(Fock, boundary), its whole-circle bound
    max(Fock, boundary bound).

    An invariant F's boundary value is the sup over the whole circle.
    Otherwise <P(omega) u, v> = sum_d omega^d <A_d u, v> is, after the
    factor omega^{(d_max + d_min)/2}, of exponential type
    K = (d_max - d_min) / 2 in the angle, so by Bernstein's inequality its
    derivative is at most K times its sup; every angle lies within pi / M
    of a node, hence sup <= value / (1 - pi K / M) when M > pi K (None
    where no bound is proved).
    """
    if not schedule:
        raise ValueError("empty schedule")
    F = _as_matrix(f)
    L = F.degree()
    invariant = omega_invariant(F)
    split: dict = {}
    for a, row in enumerate(F.entries):
        for b, p in enumerate(row):
            for word, coeff in p.terms.items():
                split.setdefault(_charge(word, 1), {}).setdefault(
                    (a, b), {})[word] = coeff
    order = sorted(split)
    parts = [[(a, b, NCPoly(F.n, terms, F.entries[a][b].den))
              for (a, b), terms in split[d].items()] for d in order]
    charges = np.array(order, dtype=int)
    K = (order[-1] - order[0]) / 2 if order else 0
    bdry, upper, fock = [], [], []
    for N, M in schedule:
        rep = boundary_block_generators(
            BoundaryConfig(n=F.n, N=N, M=M, q_val=q_val), 1.0)
        if rep.cutoff is not None:
            _check_trunc(N, L)
        indices = certify_compression(rep, L)
        r = len(indices)
        A = np.zeros((len(parts), F.shape[0] * r, F.shape[1] * r),
                     dtype=complex)
        for i, part in enumerate(parts):
            for a, b, p in part:
                A[i, a * r:(a + 1) * r, b * r:(b + 1) * r] = rep_apply(
                    p, rep, q_val, indices)
        # exp(2 pi i (t d mod M) / M): nested grids share exact phases
        grid = np.arange(1 if invariant else M)
        phases = np.exp(2j * np.pi * (np.outer(grid, charges) % M) / M)
        value = operator_norm(A, tol, phases)
        bdry.append(value)
        bound = value / (1 - np.pi * K / M) if M > np.pi * K else None
        upper.append(value if invariant else bound)
        if ball:
            fock.append(fock_certified_value(F, q_val, N, tol))
    params = [{"N": N, "M": M} for N, M in schedule]
    boundary = NormEstimate.from_values(
        params, bdry, tol, {"invariant": invariant, "circle_upper": upper})
    if not ball:
        return None, boundary
    values = [max(a, b) for a, b in zip(fock, bdry)]
    omega = {"invariant": invariant, "circle_upper": [
        None if u is None else max(a, u) for a, u in zip(fock, upper)]}
    return NormEstimate.from_values(params, values, tol, omega), boundary


def ball_norm(f: Union[NCPoly, MatPoly], q_val: float,
              schedule: Sequence[SchedulePoint],
              tol: float = DEFAULT_TOL) -> NormEstimate:
    """Certified lower bounds for the ball norm of f.

    The norming family is Fock plus the boundary representations: the
    boundary family annihilates the sphere relation but still represents
    the ball algebra, so it participates in the sup.
    """
    return _schedules(f, q_val, schedule, tol, ball=True)[0]


def boundary_norm(f: Union[NCPoly, MatPoly], q_val: float,
                  schedule: Sequence[SchedulePoint],
                  tol: float = DEFAULT_TOL) -> NormEstimate:
    """Certified lower bounds for the quotient (sphere) norm of f."""
    return _schedules(f, q_val, schedule, tol, ball=False)[1]


def boundary_certified_value(f: Union[NCPoly, MatPoly], q_val: float, N: int,
                             M: int, tol: float = DEFAULT_TOL) -> float:
    """Certified lower bound for the boundary-family norm of f: the max of
    the block norms sum_d omega^d A_d over the M-th roots of unity omega
    (the omega = 1 block alone for an omega_invariant f)."""
    return boundary_norm(f, q_val, [(N, M)], tol).final


# -- maximum-principle reports ----------------------------------------

@dataclass
class GapReport:
    """Side-by-side ball/boundary norm schedules and their gap."""

    ball: NormEstimate
    boundary: NormEstimate
    gap: float
    holomorphic: bool

    def gaps(self) -> List[float]:
        return [abs(a - b) for a, b in
                zip(self.ball.values(), self.boundary.values())]


def max_principle_report(f: Union[NCPoly, MatPoly], q_val: float,
                         schedule: Sequence[SchedulePoint],
                         tol: float = DEFAULT_TOL) -> GapReport:
    """Run both sides on the same schedule and report the norm gap.

    One pass: each schedule point computes the boundary value once and the
    Fock value once; the ball value is their max.
    """
    ball, boundary = _schedules(f, q_val, schedule, tol, ball=True)
    return GapReport(ball=ball, boundary=boundary,
                     gap=abs(ball.final - boundary.final),
                     holomorphic=_as_matrix(f).is_holomorphic())


# -- linear-independence probe ----------------------------------------

def pbw_gram_min_singular(n: int, max_degree: int, N: int, q_val: float) -> float:
    """Smallest singular value of the Gram matrix of the canonical
    monomials (degree <= max_degree) realized as truncated Fock matrices."""
    rep = _fock_rep(n, N, q_val)
    V = np.column_stack([rep_apply(NCPoly.from_word(n, word), rep, q_val).ravel()
                         for word in canonical_monomials(n, max_degree)])
    # sigma_min(V^H V) = sigma_min(V)^2, without squaring V's condition number
    s = np.linalg.svd(V, compute_uv=False)
    return float(s[-1] ** 2) if len(s) == V.shape[1] else 0.0
