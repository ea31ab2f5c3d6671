"""Truncated matrix representations and their certified subspaces.

Builds the Fock and boundary families, shows the raising weights, checks
the defining relations numerically, and demonstrates why compressing to
low truncation levels gives exact (certified) operator actions.
"""

import numpy as np

from qball import (
    AlgebraContext,
    BoundaryConfig,
    FockConfig,
    NCPoly,
    SPHERE,
    boundary_block_generators,
    certify_compression,
    fock_generators,
    parse_expression,
    relation_residual,
    rep_apply,
    rep_entries,
)

q = 0.5

print("== Fock representation, n=1, N=6 ==")
rep = fock_generators(FockConfig(1, 6, q))
weights = rep_apply(NCPoly.generator(1, 1), rep, q).diagonal(-1).real
print("  raising weights sqrt(1-q^(2(m+1))):", np.round(weights, 6))

print()
print("== defining-relation residuals (certified subspace, L=2) ==")
for n in (1, 2, 3):
    r = relation_residual(fock_generators(FockConfig(n, 8, q)),
                          AlgebraContext(n), q)
    print(f"  Fock     n={n}: {r:.2e}")
for n in (2, 3):
    # every relation is homogeneous in z1-charge: the omega = 1 block has
    # the residual of every character block
    rep_b = boundary_block_generators(BoundaryConfig(n, 8, 1, q), 1.0)
    r = relation_residual(rep_b, AlgebraContext(n, SPHERE), q)
    print(f"  boundary n={n}: {r:.2e}  (includes sum z_k z_k* = 1)")

print()
print("== certified compression ==")
rep2 = fock_generators(FockConfig(2, 8, q))
f = parse_expression("1 - z1*z1' - z2*z2'", 2)
idx = certify_compression(rep2, 2)
block = rep_apply(f, rep2, q, idx)   # only the certified columns are computed
diag = np.real(np.diag(block))
print("  1 - sum z_k z_k' acts diagonally with entries q^(2|m|):")
print("  first levels:", np.round(sorted(set(np.round(diag, 10)), reverse=True), 6))
print("  (the boundary family annihilates this element exactly)")
entries = rep_entries([f], rep2, q, idx)   # what the norm kernel is handed
r, c = entries.shape
print(f"  the norm paths keep its {len(entries.rows)} nonzeros, not all"
      f" {r * c} entries of the {r} x {c} block")
