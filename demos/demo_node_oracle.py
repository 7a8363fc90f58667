"""
The node oracle: exact evaluation over a cyclotomic field
=========================================================

Nodes of the Chebyshev hypersurface CC(n,d) have coordinates that are
cosines of rational angles, i.e. elements of Q(zeta_2d).  Evaluating
monomials at the nodes exactly gives a second, completely independent route
to the defect numbers: no Jacobian ideal, no strand matrices.  The two
routes must agree, and do.

Run:  python3 demos/demo_node_oracle.py
"""

import io

from milnor import RunConfig, analyze, canonical_spec, defect_direct, \
    enumerate_nodes, evaluation_matrix, injectivity_threshold
from milnor.chebyshev import build
from milnor.nodes import OracleConfig, _evaluation_rank, dump_nodes, \
    gradient_check

# Exact affine coordinates of the 8 nodes of CC(2,5), in Q(zeta_10).
nodes = enumerate_nodes(2, 5)
buf = io.StringIO()
dump_nodes(nodes, buf)
print("nodes of CC(2,5) as coefficient vectors over Q(zeta_10):")
print(buf.getvalue())

# Certify the points really are singular: all partials vanish, exactly.
f = build(canonical_spec(2, 5))
print(f"gradient vanishes at every node: {gradient_check(f, nodes)}")
print()

# The evaluation matrix in degree 2: 8 nodes x 6 affine monomials.
mat = evaluation_matrix(2, 5, 2)
print(f"evaluation matrix in degree 2: {mat.num_rows} x {mat.num_cols}")

# For even d the sign flips x_i -> -x_i permute the nodes, so
# milnor.symmetry splits the matrix into one piece per character of the
# 2^n flips, and the pieces' ranks are proved one by one.
res = _evaluation_rank(evaluation_matrix(3, 6, 5), OracleConfig(),
                       salt="eval-3-6-5")
print(f"CC(3,6) in degree 5: {len(res.blocks)} character pieces, "
      f"rank proved with {len(res.primes)} primes")
print()

# Oracle defects against the strand-route defects for the same surface.
rep = analyze(chebyshev=canonical_spec(2, 5), config=RunConfig(seed=0))
print("defect S_r of the node set, both routes:")
print(f"  {'r':>2s} {'oracle':>7s} {'strands':>8s}")
for r in range(4):
    oracle = defect_direct(2, 5, r)
    strand = rep.defects.defect(r)
    tag = "" if oracle == strand else "  MISMATCH"
    print(f"  {r:2d} {oracle:7d} {strand:8d}{tag}")
print()

# Degrees r <= d - 3 never see a defect: evaluation is injective there.
# One degree higher the x0-partial of the defining equation, restricted to
# x0 = 1, vanishes on every node and witnesses the failure.
res = injectivity_threshold(2, 5)
print(f"injectivity threshold for CC(2,5): r* = {res.r_star}")
print(f"witness polynomial degree {res.witness_degree} lies in the kernel:"
      f" {res.witness_in_kernel} (certified: {res.certified})")
