"""Certified norm estimation and the maximum-principle experiment layer.

All reported values are certified lower bounds for the C*-norm: a truncated
operator compressed to the subspace where truncation provably has no effect
is a genuine compression of the untruncated operator, so its norm can only
grow as the truncation parameters increase.

The norm of the ball algebra is taken as the sup over the implemented
norming family (Fock plus the boundary family); the boundary norm uses the
boundary family alone.

Every top singular value comes from one kernel, _block_norms, which takes
a list of blocks in one pass; operator_norm is its one-block case, and each
schedule side hands it the blocks of all its points in one call.  Each Fock
basis vector is a weight vector of the gauge torus z_j -> lambda_j z_j, so
a certified block is a permuted direct sum of small blocks: the kernel
splits the direct sum of its blocks, in one labelling, into the connected
components of their structural nonzeros (exact zeros only, no threshold;
labelled in numpy by hook and compress) and takes the max of each block's
norms.  It takes a block only as Entries, a stack of matrices over one
pattern (representations.rep_entries: row-major, summed in word order,
exact zeros dropped), so no r x c block is ever allocated; only the
stacks of components are dense.  The components of up to _DENSE_LIMIT =
2048 rows (or columns), from all blocks of one call, go to one stack per
(phase table, shape) group, released before ARPACK runs, which computes
only sigma_1, over as many grid nodes at a time as fit in about 1 MB:
the square root of the top eigenvalue (LAPACK eigvalsh) of the Gram
matrix on the smaller side, or the vector norm of a 1 x k or k x 1
component.  Larger components go through scipy.sparse.linalg.svds; scipy
(scipy.sparse and its linalg) is imported only for such a component.

The dtype follows the data.  rep_entries returns float64 values when every
coefficient value and every map is real (the Fock maps always, the
boundary maps at the omega = 1.0 every norm path uses), and then each
value is bit for bit the real part of the complex one.  When the values
and the phases are real, the kernel scales, batches and forms the Gram
matrix in float64 and calls the real eigvalsh (a large component goes to
svds as a real csr); otherwise it works in complex128.  Both compute
sigma_1 of the same matrix with the error bound below, so a value may
differ from its complex-arithmetic counterpart by rounding only (the
tests hold it to 4 eps relative), and a report stays byte-identical from
run to run.

Squaring entries underflows below about 1e-154 and overflows above 1e154,
so the kernel first multiplies the whole block by 2^-e, where 2^e just
exceeds its largest entry, and the result by 2^e.  Both are exact (ldexp
on the real array, or on the real and imaginary parts of a complex one).
An entry that underflows once scaled lies below 2^-1074 of the largest
one and cannot change the reported max, which is at least the largest
entry.  The top Gram eigenvalue has absolute error about eps ||A||^2, so
sigma_1 has absolute error about eps ||A||: relative eps for the
component that gives the value.

In the boundary character block of an M-th root of unity omega, z1 acts
as omega * D and the other generators do not depend on omega, so a word of
z1-charge d = #z1 - #z1' contributes omega^d times its omega = 1 matrix.  A
polynomial, or a k x l matrix of polynomials, is one trigonometric
polynomial sum_d omega^d A_d; the union sparsity pattern over d holds for
every omega, so one split of the stack serves all M blocks.  A polynomial
is the 1 x 1 case throughout (MatPoly.of): rep_entries' parts, ball_norm
and boundary_norm may be either, so matrix levels are these same calls.

The gauge torus z_j -> lambda_j z_j, with row and column phases on a
matrix and a global phase, acts in both families by diagonal unitaries,
which commute with the certified compression and change no norm.  One
exact decision per input, gauge(F), answers every gauge question by one
integer row reduction (_echelon) over the charge vectors of the words of F
whose coefficient is nonzero at the exact ratio of the float q (the others
add exact zeros to every block).  When F is omega-invariant, every
boundary block is a phase times a unitary conjugate of the omega = 1
block, so that one block is evaluated and its value is the sup over the
whole circle.  For any other input a schedule reports, per point, the
whole-circle upper bound grid max / (1 - pi K / M) when M > pi K, where 2K
is the spread of the z1-charges of those words (Bernstein's inequality;
every angle lies within pi / M of a node); the bracket covers the omega
discretisation at fixed N only.  gauge also decides, in Q(i), whether
some gauge makes every coefficient real, and gives float angles beta.
With them the Fock side multiplies the map of z_j by e^{i beta_j} and
the stack by its tile and constant phases, drops the imaginary parts
(rounding only, tested below 1e-14 of the largest entry) and goes to the
real kernel.  On the boundary side, the gauged F' has real coefficients,
so block_F'(conj omega) = conj(block_F'(omega)) has the singular values
of block_F'(omega); undoing the gauge, block_F(omega) and
block_F(rho conj omega) have the same ones, rho = e^{2 i beta_1}.  When
rho is the M-th root of unity omega_s, conj(omega_t) rho = omega_{s-t},
so the nodes t with 0 <= 2t - s <= M give the max over all M (the proof
is in _schedules).  A real F has beta = 0 and s = 0: the Fock stack is
the one rep_entries gives and the nodes are t = 0..M // 2.  An F with no
gauge takes complex arithmetic and every node, and an F whose rho is no
root of unity of the first grid order every node.

Every schedule is one pass (_schedules), over a nested schedule: N
non-decreasing and each grid order M dividing the next.  Once per input it
finds F's degree, gauge(F) and the part of each z1-charge d (a MatPoly)
of its words nonzero at q.  Once per side it builds the representation
at the last N (the omega = 1 block, or the Fock representation for the
ball side) and makes one rep_entries call: the stack of the A_d over
the union of their patterns.  Each point's certified block is a leading
principal restriction of that stack, bit for bit, and each point's grid
a subgroup of the next one's, so the value before a point is a lower
bound for it; each point's value is the max of that and the norm of its
own block over its own grid (the proof is in _schedules), and the values
never decrease.  The blocks of every point of a side go to the kernel in
one call, so their components are labelled, scattered and batched
together.  A maximum-principle report is that one pass with both sides; a
single-point value is a one-point schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import AlgebraContext, MatPoly, NCPoly
from .representations import (
    BoundaryConfig,
    Entries,
    FockConfig,
    RepMatrices,
    TruncationError,
    boundary_block_generators,
    certify_compression,
    fock_generators,
    rep_entries,
)
from .rewrite import canonical_monomials, defining_relations
from .scalars import coefficient_numerators

DEFAULT_TOL = 1e-8
_DENSE_LIMIT = 2048
_BATCH_BYTES = 1 << 20      # size of one einsum chunk of a stack


class NormConvergenceError(RuntimeError):
    """Iterative norm computation failed to converge."""

    def __init__(self, message: str, last_value: float):
        super().__init__(message)
        self.last_value = last_value


def operator_norm(A: Entries, tol: float = DEFAULT_TOL,
                  phases: Optional[np.ndarray] = None) -> float:
    """Largest singular value of the block A, deterministic.

    A is a stack of D matrices A_d over one pattern (Entries, as
    representations.rep_entries returns it: row-major, no position 0 in
    every A_d), and the value is the max over t of the largest singular
    value of sum_d phases[t, d] * A_d; phases=None is one row of ones.
    This is the one-block case of _block_norms, which says how.
    """
    return _block_norms([(A, phases)], tol)[0]


def _block_norms(items: Sequence[Tuple[Entries, Optional[np.ndarray]]],
                 tol: float) -> List[float]:
    """operator_norm(A, tol, phases) of each (A, phases) item in one pass,
    each bit for bit the value of a call on that item alone.

    Each block keeps its own exact power-of-two scale (module docstring).
    The blocks of one dtype and one D are labelled together, as their
    direct sum: one block-diagonal Entries, all rows first and then all
    columns, each block at its own offset.  Its bipartite graph of
    structural nonzeros (the union pattern, which holds for every t) is
    the disjoint union of theirs.  Permuted, a block is the direct sum of
    its components, so its norm is the max of theirs.  The dense
    components of one phase table (None is one table) and one shape form
    a group: one stable sort of the dense components, and one of their
    entries, by (table, shape) gives every group at once, its members in
    the order of their first rows.  Each group is scattered into a (D,
    members, a, b) stack of its own, released before ARPACK runs; the
    stack goes to _stack_top, and each matrix's value credits its own
    block.  Each LAPACK and BLAS call sees one matrix, so no value
    depends on what shares its stack.

    Then each component with more than _DENSE_LIMIT rows and columns goes
    to ARPACK (svds, k = 1, from the all-ones vector), block by block in
    order; a NormConvergenceError carries the max of the earlier blocks'
    values and the unscaled max found in its own block.  A zero or empty
    block gives 0, a nan or infinite entry a ValueError.  Real values with
    real phases (None included) stay float64 throughout, else complex128.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    scales = [0] * len(items)
    kinds: dict = {}            # (dtype, D) -> the nonzero blocks of that kind
    for m, (A, _) in enumerate(items):
        if not np.isfinite(A.values).all():
            raise ValueError("the block has a nan or infinite entry")
        if A.values.size:
            # an exact power-of-two scale: the largest entry goes to [1/2, 1)
            scales[m] = int(np.frexp(np.abs(A.values).max())[1])
            kinds.setdefault((A.values.dtype, len(A.values)), []).append(m)
    best = np.zeros(len(items))
    large = []
    for (dtype, D), ks in kinds.items():
        ks = np.array(ks)
        blocks = [items[m][0] for m in ks]
        vals = np.concatenate([_scaled(A.values, scales[m])
                               for m, A in zip(ks, blocks)], axis=1)
        owner = np.repeat(np.arange(len(ks)), [len(A.rows) for A in blocks])
        # the direct sum: all rows, then all columns, each block at its offset
        r, c = np.array([A.shape for A in blocks]).T
        R, nodes = int(r.sum()), int((r + c).sum())
        row0, col0 = np.cumsum(r) - r, R + np.cumsum(c) - c
        u = np.concatenate([A.rows for A in blocks]) + row0[owner]
        v = np.concatenate([A.cols for A in blocks]) + col0[owner]
        count, labels = _components(nodes, u, v)
        # each row's (column's) place among the rows (columns) of its component
        part = np.concatenate([labels[:R], count + labels[R:]])
        order = np.argsort(part, kind="stable")
        sizes = np.bincount(part, minlength=2 * count)
        pos = np.empty(nodes, dtype=int)
        pos[order] = np.arange(nodes) - (np.cumsum(sizes) - sizes)[part[order]]
        n_rows, n_cols = sizes[:count], sizes[count:]
        comp, i, j = labels[u], pos[u], pos[v]
        home = np.zeros(count, dtype=int)       # each component's block
        home[comp] = owner
        tables = [id(items[m][1]) for m in ks]  # None is one table
        table = np.array([tables.index(t) for t in tables])
        live = (n_rows > 0) & (n_cols > 0)
        dense = live & (np.minimum(n_rows, n_cols) <= _DENSE_LIMIT)
        for k in np.nonzero(live & ~dense)[0]:
            mine = comp == k
            large.append((ks[home[k]], vals[:, mine], i[mine], j[mine],
                          (n_rows[k], n_cols[k]), items[ks[home[k]]][1]))
        # one group, and one stack, per (table, shape) key of the dense
        # components; both sorts split where the key changes, and every
        # live component has an entry, so the splits pair up
        key = (table[home] * (R + 1) + n_rows) * (nodes + 1) + n_cols
        members = np.flatnonzero(dense)
        members = members[np.argsort(key[members], kind="stable")]
        edges = np.flatnonzero(dense[comp])
        edges = edges[np.argsort(key[comp[edges]], kind="stable")]
        groups = zip(
            np.split(members, np.flatnonzero(np.diff(key[members])) + 1),
            np.split(edges, np.flatnonzero(np.diff(key[comp[edges]])) + 1))
        for group, mine in groups if len(members) else ():
            sub = np.zeros((D, len(group), n_rows[group[0]],
                            n_cols[group[0]]), dtype=dtype)
            sub[:, np.searchsorted(group, comp[mine]), i[mine], j[mine]] = \
                vals[:, mine]
            owners = ks[home[group]]
            np.maximum.at(best, owners, _stack_top(sub, items[owners[0]][1]))
            del sub                 # no stack is held while ARPACK runs
    for m, part_vals, rows, cols, shape, phases in sorted(
            large, key=lambda item: item[0]):
        done = max((math.ldexp(best[p], scales[p]) for p in range(m)),
                   default=0.0)
        for w in np.ones((1, len(part_vals))) if phases is None else phases:
            best[m] = max(best[m], _svds_top(
                w @ part_vals, rows, cols, shape, tol,
                max(done, math.ldexp(best[m], scales[m]))))
    return [math.ldexp(float(value), e) for value, e in zip(best, scales)]


def _scaled(found: np.ndarray, e: int) -> np.ndarray:
    """found times 2^-e, exactly (ldexp on the real and imaginary parts)."""
    if not np.iscomplexobj(found):
        return np.ldexp(found, -e)
    vals = np.empty(found.shape, dtype=complex)
    vals.real, vals.imag = np.ldexp(found.real, -e), np.ldexp(found.imag, -e)
    return vals


def _stack_top(sub: np.ndarray, phases: Optional[np.ndarray]) -> np.ndarray:
    """Top singular value of each of the k matrices of sum_d phases[t, d]
    sub[d] (sub a (D, k, a, b) stack), maxed over t, in batches of as many
    t as fit in _BATCH_BYTES (at least one); with no phases and D = 1,
    sub[0] itself, since 1.0 x = x."""
    if phases is None and len(sub) == 1:
        return _top_singular(sub[0])
    if phases is None:
        phases = np.ones((1, len(sub)))
    chunk = max(1, _BATCH_BYTES // (
        sub[0].size * np.result_type(sub, phases).itemsize))
    top = np.zeros(sub.shape[1])
    for t in range(0, len(phases), chunk):
        top = np.maximum(top, _top_singular(np.einsum(
            "md,dkij->mkij", phases[t:t + chunk], sub)).max(axis=0))
    return top


def _top_singular(blocks: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack: the vector norm of
    a 1 x k or k x 1 matrix, else the square root of the top eigenvalue of
    the Gram matrix on the smaller side, clamped at 0."""
    a, b = blocks.shape[-2:]
    if min(a, b) == 1:
        return np.linalg.norm(blocks, axis=(-2, -1))
    adjoint = blocks.conj().swapaxes(-1, -2)
    gram = adjoint @ blocks if b <= a else blocks @ adjoint
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


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


def make_schedule(trunc: Sequence[int], theta: int) -> List[SchedulePoint]:
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
    if theta < 1:
        raise ValueError(f"theta must be at least 1, got {theta}")
    halvings = (theta & -theta).bit_length() - 1  # v2(theta)
    last = len(trunc) - 1
    return [(int(N), theta >> min(last - i, halvings))
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

    def is_monotone(self) -> bool:
        vals = self.values()
        return all(b >= a for a, b in zip(vals, vals[1:]))


# -- single-point certified values ------------------------------------

def _check_trunc(N: int, degree: int) -> None:
    if N < degree + 1:
        raise TruncationError(
            f"truncation too small: N={N} < deg+1={degree + 1}")


def fock_certified_value(f: Union[NCPoly, MatPoly], q_val: float, N: int,
                         tol: float = DEFAULT_TOL) -> float:
    """Certified lower bound for the Fock-representation norm of f: the
    Fock side of a one-point schedule."""
    F = MatPoly.of(f)
    return _nested_values([F], fock_generators(FockConfig(F.n, N, q_val)),
                          q_val, F.degree(), [(N, 1)], tol,
                          beta=gauge(F, q_val, 1)[1])[0]


def _charges(word, n: int) -> Tuple[int, ...]:
    """The charge vector (#z_j - #z_j')_{j=1..n} of a word."""
    return tuple(sum(-1 if x.starred else 1 for x in word if x.index == j)
                 for j in range(1, n + 1))


# A row (v, g) of a gauge system: an integer vector v and a nonzero Gaussian
# integer g = (re, im), standing for beta . v = -arg g (mod pi).
GaugeRow = Tuple[Tuple[int, ...], Tuple[int, int]]


def _gauge_rows(F: MatPoly, q_val: float) -> List[GaugeRow]:
    """One row per word w of F whose coefficient is not 0 at the exact
    ratio of q_val, in entry (a, b): v(w) = (c(w), e_a, -e_b, 1) with
    c_j(w) = #z_j - #z_j', but with c_1 moved to the last column, and g
    den times w's coefficient there, times a positive integer
    (coefficient_numerators)."""
    k, l = F.shape
    rows = []
    for a, row in enumerate(F.entries):
        for b, p in enumerate(row):
            tile = (tuple(int(i == a) for i in range(k))
                    + tuple(-int(i == b) for i in range(l)) + (1,))
            for word, coeff in p.terms.items():
                re, im, _ = coefficient_numerators(coeff, p.den, q_val)
                if re or im:
                    c = _charges(word, F.n)
                    rows.append((c[1:] + tile + c[:1], (re, im)))
    return rows


def _gauss_mul(g: Tuple[int, int], h: Tuple[int, int]) -> Tuple[int, int]:
    return g[0] * h[0] - g[1] * h[1], g[0] * h[1] + g[1] * h[0]


def _echelon(rows: List[GaugeRow]) -> Tuple[List[GaugeRow], bool]:
    """An echelon form of the rows by integer Euclid steps, and whether the
    system beta . v = -arg g (mod pi) has a real solution beta.

    A step takes (v, g) - k (v', g') to (v - k v', g conj(g')^k), with
    g g'^|k| for k < 0 (the same up to a positive factor): then
    beta . (v - k v') = -arg g + k arg g' = -arg(g conj(g')^k), and the
    steps are invertible over Z, so the solutions stay the same.  Column
    by column, the row of least nonzero |v_j| reduces the others until one
    row is nonzero there, that column's pivot.  The rows left have v = 0
    and hold iff their g is real.  Each g is divided by the gcd of its
    parts, which leaves its argument alone.  The rows span the same
    lattice as the input, so a vector of it that is 0 but in the last
    column is a multiple of the last pivot row."""
    pivots: List[GaugeRow] = []
    for j in range(len(rows[0][0]) if rows else 0):
        live = [row for row in rows if row[0][j]]
        rows = [row for row in rows if not row[0][j]]
        while len(live) > 1:
            live.sort(key=lambda row: abs(row[0][j]))
            (p, (x, y)), reduced = live[0], []
            for v, g in live[1:]:
                k = v[j] // p[j]
                for _ in range(abs(k)):     # times conj(g')^k, or g'^-k
                    g = _gauss_mul(g, (x, -y if k > 0 else y))
                d = math.gcd(*g)
                reduced.append((tuple(a - k * b for a, b in zip(v, p)),
                                (g[0] // d, g[1] // d)))
            rows += [row for row in reduced if not row[0][j]]
            live = live[:1] + [row for row in reduced if row[0][j]]
        pivots += live
    return pivots, all(g[1] == 0 for _, g in rows)


def _angles(pivots: List[GaugeRow], width: int) -> List[float]:
    """A float solution beta of an echelon system, by back-substitution
    with the free columns at 0; a real g stands for the angle 0, so a
    system whose every g is real gives beta = 0."""
    beta = [0.0] * width
    for v, (re, im) in reversed(pivots):
        # arg g mod pi, without a float of either part: both ratios are <= 1
        arg = (math.atan(im / re) if abs(im) <= abs(re)
               else math.pi / 2 - math.atan(re / im))
        j = next(i for i, x in enumerate(v) if x)
        beta[j] = (-arg - sum(x * b for x, b in zip(v[j + 1:], beta[j + 1:]))
                   ) / v[j]
    return beta


def gauge(f: Union[NCPoly, MatPoly], q_val: float, M0: int
          ) -> Tuple[bool, Optional[List[float]], Optional[int]]:
    """(invariant, beta, s0) for f at q_val, all read off one echelon form
    (_echelon) of the rows of _gauge_rows.  A word whose coefficient is 0
    at the exact ratio of q_val has no row: it adds exact zeros to every
    block.

    invariant: whether every boundary block of f is a phase times a
    unitary conjugate of the omega = 1 block, so that block alone gives
    the sup over the whole circle.  A word w in entry (a, b) of F has
    v(w) = (c(w), e_a, -e_b, 1), where c_j(w) = #z_j - #z_j'.  F is
    invariant iff (e_1, 0) is not in the rational span of the v(w), that is
    e_1 not in the span of the differences v(w) - v(w0): then an integer
    (x, alpha, gamma) with x_1 != 0 makes x.c(w) + alpha_a - gamma_b one
    constant K.  With mu^{x_1} = omega, conjugating by
    diag(prod_{j>=2} mu^{-x_j m_{j-1}}) (z_j -> mu^{-x_j} z_j for j >= 2)
    with row phases mu^{-alpha_a} and column phases mu^{gamma_b} maps
    block(1) to mu^{-K} block(omega); these diagonal unitaries commute with
    the certified compression.  With c_1 last, some P e_1 is in the
    lattice of the v(w) iff the last pivot row is 0 but in the last
    column; n = 1, scalars and an f with no row are the small cases.

    beta: gauge angles (beta_1..beta_n, rows, columns, constant) that make
    every coefficient of f real, None where there is none and where every
    coefficient is real already.  The gauge multiplies w by
    chi(v(w)) = exp(i beta . v(w)): z_j -> e^{i beta_j} z_j, row phases,
    column phases and a global phase, each a diagonal unitary in both
    families that commutes with the certified compression.
    chi(v(w)) c_w is real, +-|c_w|, iff beta . v(w) = -arg c_w (mod pi),
    the system of the rows.

    s0: the axis of the boundary grid of order M0 (see _schedules), None
    where there is none.  It asks for a gauge with M0 beta_1 = 0 (mod pi),
    so that rho = e^{2 i beta_1} is the M0-th root of unity
    exp(2 pi i s0 / M0).  Back-substitution solves every other row for any
    beta_1, so with c_1 last the beta_1 of the gauges are those with
    P beta_1 = -arg g (mod pi) for the last pivot row (0, .., 0, P | g),
    and every beta_1 when there is none: a real or invariant f has the
    axis 0.  The angle of a Gaussian integer is a rational multiple of pi
    only when it is m pi / 4, g (1 - i)^m real, so beta_1 = pi t / M0
    needs 4 P t = -m M0 (mod 4 M0), solved exactly in integers; no
    Gaussian integer grows with M0."""
    F = MatPoly.of(f)
    rows = _gauge_rows(F, q_val)
    real = not any(im for _, (_, im) in rows)
    pivots, solvable = _echelon(rows)
    invariant = not pivots or any(pivots[-1][0][:-1])
    if real or not solvable:
        return invariant, None, 0 if real else None
    beta = _angles(pivots, F.n + sum(F.shape) + 1)
    beta = beta[-1:] + beta[:-1]                # c_1 back in front
    if invariant:
        return True, beta, 0                    # beta_1 = 0 is a gauge
    v, (re, im) = pivots[-1]
    # arg g = m pi / 4 (mod pi); None: no rational multiple of pi
    m = {(re, 0): 0, (0, im): 2, (re, re): 1, (re, -re): 3}.get((re, im))
    P, d = v[-1], 4 * math.gcd(v[-1], M0)
    if m is None or m * M0 % d:
        return False, beta, None
    mod = M0 * 4 // d
    return False, beta, -(m * M0 // d) * pow(P * 4 // d, -1, mod) % mod


def relation_residual(rep: RepMatrices, ctx: AlgebraContext, q_val: float) -> float:
    """Max operator norm of (LHS - RHS) over the defining relations of ctx
    evaluated in rep, compressed to the certified subspace for two-letter
    words."""
    if ctx.n != rep.n:
        raise ValueError("context dimension mismatch")
    indices = certify_compression(rep, 2)
    return max(_block_norms([(rep_entries([r], rep, q_val, indices), None)
                             for r in defining_relations(ctx)], DEFAULT_TOL),
               default=0.0)


# -- norm schedules ---------------------------------------------------

def _nested_values(parts: Sequence[MatPoly], rep: RepMatrices, q_val: float,
                   L: int, schedule: Sequence[SchedulePoint], tol: float,
                   phases: Optional[Callable[[int], np.ndarray]] = None,
                   beta: Optional[Sequence[float]] = None) -> List[float]:
    """The certified value of the stack of parts (words of length <= L) at
    each point (N, M) of a nested schedule, rep built at the last N: one
    rep_entries call, and each point's block is a leading principal
    restriction of that stack (see _schedules).  With phases, a point's
    norm is the max over the rows of phases(M) (operator_norm); without,
    the stack's norm.  Every point's block goes to one _block_norms call,
    and a point's value is the running max of the norms, so each value is
    at least the one before it.  With beta (gauge), rep's map of z_j is
    taken times e^{i beta_j} and the stack times its tile and constant
    phases, which makes it real up to rounding, and its real part is
    evaluated."""
    Ns = [N for N, _ in schedule]
    _check_trunc(Ns[0], L)
    if beta is not None:
        angle = np.asarray(beta)
        rep = replace(rep, maps=[(t, w * z) for (t, w), z in
                                 zip(rep.maps, np.exp(1j * angle))])
    A = rep_entries(parts, rep, q_val, certify_compression(rep, L))
    # each point's certified rows are a prefix of the last point's
    sizes = [len(certify_compression(rep, L + Ns[-1] - N)) for N in Ns]
    r = sizes[-1]
    k, l = A.shape[0] // r, A.shape[1] // r
    if beta is not None:
        angle = angle[rep.n:]                   # rows, columns, constant
        tile = angle[A.rows // r] - angle[k + A.cols // r] + angle[-1]
        A = A._replace(values=(A.values * np.exp(1j * tile)).real)
    tables = {M: phases(M) for _, M in schedule} if phases is not None else {}
    items = []
    for size, (_, M) in zip(sizes, schedule):
        keep = (A.rows % r < size) & (A.cols % r < size)
        rows, cols = A.rows[keep], A.cols[keep]
        items.append((Entries(rows // r * size + rows % r,
                              cols // r * size + cols % r, A.values[:, keep],
                              (k * size, l * size)), tables.get(M)))
    return list(accumulate(_block_norms(items, tol), max))


def _schedules(f: Union[NCPoly, MatPoly], q_val: float,
               schedule: Sequence[SchedulePoint], tol: float, ball: bool
               ) -> Tuple[Optional[NormEstimate], NormEstimate]:
    """Ball (if asked) and boundary schedules of f, in one pass (see the
    module docstring).  The parts hold only the words nonzero at q, which
    drops exact zeros from the boundary stack and nothing else; an F with
    no such word has one zero part, of charge 0.  The ball value is
    max(Fock, boundary), its whole-circle bound max(Fock, boundary bound).

    The schedule must be nested: N non-decreasing and each grid order M
    dividing the next, else a ValueError.  Then each side is built once,
    at the last point, and every value is the grid max at its point and at
    least the value before it:
    - Restriction.  The basis is graded by level, so the basis at N and
      its certified set (levels <= N - L) are prefixes of those at the last
      N'.  A weight depends only on m and q, so the maps at N and at N'
      agree on the levels below N, and a word of <= L letters applied to a
      certified column applies each letter at a level below N.  So each
      entry of the block at N, summed in the same word order, is bit for
      bit the entry of the last block at the same row and column: the
      block at N is the leading principal restriction of each r x r tile
      of the last block (_nested_values).  At n = 1 the boundary block
      is the same 1 x 1 block at every N, its one vector of level 0
      certified at every N >= L + 1.
    - Compression.  Point i - 1's grid is a subgroup of point i's: the
      node t of M_{i-1} is the node t M_i / M_{i-1} of M_i (on the half
      grid too, below), with the same phases, since
      (k t d mod kM) / kM = (t d mod M) / M exactly.  At each such node
      the block at i - 1 is a compression of the block at i, so its norm
      is no larger.  So value(i) = max(value(i - 1), the norm at point i)
      is the grid max at point i: the max keeps value(i - 1) only where
      the norm at point i rounds below it.
    The values are non-decreasing exactly, with no slack.

    An invariant F's boundary value is the sup over the whole circle.
    Otherwise <P(omega) u, v> = sum_d omega^d <A_d u, v> is, after the
    factor omega^{(d_max + d_min)/2}, of exponential type
    K = (d_max - d_min) / 2 in the angle (d over the parts), so by
    Bernstein's inequality its derivative is at most K times its sup;
    every angle lies within pi / M of a node, hence
    sup <= value / (1 - pi K / M) when M > pi K (None where no bound is
    proved).

    A non-invariant F with an axis (gauge at M0, the first grid
    order) evaluates half its grid.  Let F' be F gauged by beta, with
    real coefficients, and rho = e^{2 i beta_1} = omega_s, s = s0 M / M0.
    The gauge is z1 -> e^{i beta_1} z1 and diagonal unitaries, so
    block_F(e^{i beta_1} omega) has the singular values of
    block_F'(omega); block_F'(conj omega) = conj(block_F'(omega)) has
    the same ones, so block_F(nu) and block_F(rho conj nu) do, and
    rho conj(omega_t) = omega_{s-t}.  This pairs t with s - t (mod M),
    2t - s with s - 2t: of two partners, one has 2t - s mod 2M in [0, M]
    (the other in (-M, 0) then), so the nodes with 0 <= 2t - s <= M give
    the max over all M.  As s < M, they lie in 0..M - 1.  The grids stay
    nested: at kM the axis is ks, and t -> kt sends 0 <= 2t - s <= M to
    0 <= 2kt - ks <= kM.  A real F has beta = 0 and s = 0, the nodes
    t = 0..M // 2; an F with no axis evaluates all M nodes.
    """
    if not schedule:
        raise ValueError("empty schedule")
    F = MatPoly.of(f)
    for N, M in schedule:       # every point is valid; the last is built
        cfg = BoundaryConfig(n=F.n, N=N, M=M, q_val=q_val)
    for (N, M), (N2, M2) in zip(schedule, schedule[1:]):
        if N2 < N or M2 % M:
            raise ValueError(
                f"schedule not nested at ({N}, {M}) -> ({N2}, {M2}): need "
                "N non-decreasing and each grid order dividing the next")
    L = F.degree()
    M0 = schedule[0][1]
    invariant, beta, axis = gauge(F, q_val, M0)
    # the words nonzero at q: the others add exact zeros to every block
    live = [[NCPoly(F.n, {w: c for w, c in p.terms.items() if any(
        coefficient_numerators(c, p.den, q_val)[:2])}, p.den)
        for p in row] for row in F.entries]
    charge = {word: _charges(word, F.n)[0]
              for row in live for p in row for word in p.terms}
    order = sorted(set(charge.values())) or [0]
    parts = [MatPoly([[NCPoly(F.n, {w: c for w, c in p.terms.items()
                                    if charge[w] == d}, p.den)
                       for p in row] for row in live]) for d in order]
    K = (order[-1] - order[0]) / 2

    def phases(M: int) -> np.ndarray:
        # the nodes with 0 <= 2t - s <= M about the axis s, else all M;
        # exp(2 pi i (t d mod M) / M): nested grids share exact phases
        if axis is None:
            t = np.arange(M)
        else:
            s = axis * M // M0
            t = np.arange((s + 1) // 2, (s + M) // 2 + 1)
        return np.exp(2j * np.pi * (np.outer(t, order) % M) / M)

    bdry = _nested_values(parts, boundary_block_generators(cfg, 1.0), q_val,
                          L, schedule, tol, None if invariant else phases)
    upper = [value if invariant else
             value / (1 - np.pi * K / M) if M > np.pi * K else None
             for value, (_, M) in zip(bdry, schedule)]
    params = [{"N": N, "M": M} for N, M in schedule]
    boundary = NormEstimate.from_values(
        params, bdry, tol, {"invariant": invariant, "circle_upper": upper})
    if not ball:
        return None, boundary
    fock = _nested_values([F], fock_generators(FockConfig(F.n, cfg.N, q_val)),
                          q_val, L, schedule, tol, beta=beta)
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

    One pass: each side's representation is built, and its entries
    evaluated, once per schedule at the last N; each point takes the norm
    of its restriction.  The ball value is the max of the two sides.
    """
    ball, boundary = _schedules(f, q_val, schedule, tol, ball=True)
    return GapReport(ball=ball, boundary=boundary,
                     gap=abs(ball.final - boundary.final),
                     holomorphic=MatPoly.of(f).is_holomorphic())


# -- linear-independence probe ----------------------------------------

def pbw_gram_min_singular(n: int, max_degree: int, N: int, q_val: float) -> float:
    """Smallest singular value of the Gram matrix V^H V of the canonical
    monomials (degree <= max_degree) realized as truncated Fock matrices,
    one column of V per monomial.

    A canonical word z^alpha z*^beta sends e_m to a multiple of
    e_{m + alpha - beta}, or to 0, so the matrices of two monomials are
    orthogonal unless their charge vectors alpha - beta agree: V^H V is
    block diagonal by charge class, and sigma_min(V)^2 is the min over the
    classes of sigma_min(V_c)^2.  Within a class every matrix has its
    nonzeros at (m + alpha - beta, m), so the stack of the class in one
    rep_entries call is V_c with its all-zero rows dropped, each value bit
    for bit that of the matrix.  A class with fewer nonzero positions than
    monomials (an empty pattern included) gives 0.
    No certified indices are needed: in a canonical (Wick-ordered) word the
    starred letters act first and only lower the level, then the unstarred
    ones only raise it, so the truncated matrix is the compression
    P_N w P_N.

    N >= max_degree is needed, else TruncationError.  It suffices: within a
    class of charge c, w_beta = z^(beta + c) z*^beta kills e_m unless
    m >= beta (componentwise), and w_beta e_beta != 0 when
    max(|alpha|, |beta|) <= N, so the rows at m = beta of V_c, ordered by
    |beta|, form a triangular matrix with a nonzero diagonal.  It is
    needed: z1^max_degree vanishes in P_N when N < max_degree, and the
    probe would report a false 0.
    """
    if N < max_degree:
        raise TruncationError(
            f"truncation too small: N={N} < degree={max_degree}")
    classes: dict = {}
    for word in canonical_monomials(n, max_degree):
        classes.setdefault(_charges(word, n), []).append(
            NCPoly.from_word(n, word))
    rep = fock_generators(FockConfig(n, N, q_val))
    mins = []
    for cls in classes.values():
        V = rep_entries(cls, rep, q_val).values.T
        # sigma_min(V^H V) = sigma_min(V)^2: V's condition number, not squared
        s = np.linalg.svd(V, compute_uv=False)
        mins.append(float(s[-1] ** 2) if len(s) == V.shape[1] else 0.0)
    return min(mins)
