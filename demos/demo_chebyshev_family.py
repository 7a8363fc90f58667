"""
Chebyshev hypersurfaces: closed-form node counts and thresholds
===============================================================

CC(n,d) is the projective closure of T_d(x_1) + ... + T_d(x_n) + k with
T_d the degree-d Chebyshev polynomial of the first kind and k the canonical
shift (0 for n even, 1 for n odd).  All singularities are nodes located at
tuples of critical points, so the node count has a closed form, and the
whole family makes a sharp test bed for the Hilbert-function pipeline.

Run:  python3 demos/demo_chebyshev_family.py
"""

from milnor import RunConfig, analyze, canonical_spec, cc_node_count, format_polynomial
from milnor.chebyshev import build, critical_tuples

# The defining polynomial is assembled from the Chebyshev recurrence and
# homogenized; no x_i^(d-1) monomial survives, which is what makes the
# Jacobian ideal interesting.
spec = canonical_spec(2, 5)
f = build(spec)
print(f"CC(2,5) = {format_polynomial(f)}")
print()

# Nodes sit at mixed tuples of critical points of T_5.  The closed form
# counts them without ever touching a matrix.
tuples = list(critical_tuples(2, 5, spec.k))
print(f"critical tuples for CC(2,5): {len(tuples)} nodes, e.g. {tuples[:3]}")
print(f"closed-form count: {cc_node_count(2, 5)}")
print()

# Now the expensive route: exact linear algebra on the Jacobian strands.
# tau, st, ct all come out of the Hilbert function and must match the
# combinatorics above.
print("grid of canonical Chebyshev hypersurfaces:")
print(f"  {'case':9s} {'tau':>4s} {'ct':>3s} {'st':>3s} {'mdr':>4s}  alexander")
for n, d in [(2, 3), (2, 5), (3, 3), (3, 4), (4, 4)]:
    rep = analyze(chebyshev=canonical_spec(n, d), config=RunConfig(seed=0))
    t = rep.thresholds
    print(f"  CC({n},{d})   {t.tau:4d} {t.ct:3d} {t.st:3d} {t.mdr:4d}"
          f"  {rep.alexander.text()}")
print()

# The stability threshold follows the formula st = n(d-2) + 1 across the
# family; for even n the coincidence threshold has a conjectural closed
# form whose verified range the report keeps track of.
rep = analyze(chebyshev=canonical_spec(4, 4), config=RunConfig(seed=0))
for verdict in rep.conjectures:
    print(f"conjecture {verdict.name}: predicted {verdict.predicted},"
          f" computed {verdict.computed} [{verdict.label}]")
