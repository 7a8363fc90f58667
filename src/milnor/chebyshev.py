"""Chebyshev hypersurfaces: construction, node counts, conjecture harness.

The degree-d Chebyshev polynomial T_d has critical points lambda_j =
cos(j*pi/d) for j = 1..d-1, with T_d(lambda_j) = (-1)^j: odd j gives a
local minimum with value -1, even j a local maximum with value +1. The
hypersurface C(n,d,k) is the homogenization of

    T_d(x_1) + ... + T_d(x_n) + k

and its singularities are exactly the affine points whose coordinates are
critical points of T_d with critical values summing to -k. All of them
are nodes, there are none at infinity (the top-degree part is a scaled
Fermat form), and the counts reduce to binomial arithmetic. CC(n,d) is
the canonical member: k = 0 for n even, k = 1 for n odd.

The closed-form count assigns each of the a = (n+k)/2 minimum-coordinates
one of the d1 = floor(d/2) minima and each remaining coordinate one of the
maxima (d1 for odd d, d1 - 1 for even d); the brute-force tuple
enumerator is the arbiter and agrees with it.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from math import comb

from .hilbert import ThresholdReport
from .poly import SparsePolynomial, chebyshev_poly, homogenize
from .topology import DefectTable, TheoremCheck

__all__ = [
    "ChebyshevSpec",
    "ConjectureVerdict",
    "build",
    "canonical_spec",
    "cc_node_count",
    "critical_indices",
    "critical_tuples",
    "enumerated_node_count",
    "node_count_formula",
    "st_formula",
    "st_formula_check",
    "verify_conjectures",
]

VERIFIED_RANGE = "matches verified range d <= 20"
CONFLICT_RANGE = "conflicts with verified range d <= 20"
NEW_DATA_POINT = "new data point"


@dataclass(frozen=True)
class ChebyshevSpec:
    """Parameters (n, d, k) of the hypersurface C(n,d,k) in P^n."""

    n: int
    d: int
    k: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.d < 3:
            raise ValueError("need d >= 3")

    @property
    def singular(self) -> bool:
        return abs(self.k) <= self.n and (self.n + self.k) % 2 == 0

    @property
    def canonical(self) -> bool:
        return self.k == (0 if self.n % 2 == 0 else 1)


def canonical_spec(n: int, d: int) -> ChebyshevSpec:
    return ChebyshevSpec(n=n, d=d, k=0 if n % 2 == 0 else 1)


def build(spec: ChebyshevSpec) -> SparsePolynomial:
    """Homogeneous degree-d equation of C(n,d,k) in variables x0..xn."""
    nv = spec.n + 1
    td = chebyshev_poly(spec.d)
    affine = SparsePolynomial.constant(nv, spec.k)
    for i in range(1, nv):
        affine = affine + td.embed(nv, {0: i})
    return homogenize(affine, spec.d)


def critical_indices(d: int) -> tuple[list[int], list[int]]:
    """(minima, maxima) index lists: j in 1..d-1, odd j minima, even j maxima."""
    js = range(1, d)
    return [j for j in js if j % 2 == 1], [j for j in js if j % 2 == 0]


def critical_tuples(n: int, d: int, k: int):
    """All (j_1..j_n) with critical values summing to -k, in lex order.

    Each j_i indexes the critical point cos(j_i*pi/d); the singular points
    of C(n,d,k) are exactly these tuples mapped through cosine.
    """
    for js in itertools.product(range(1, d), repeat=n):
        if sum(-1 if j % 2 else 1 for j in js) == -k:
            yield js


def enumerated_node_count(n: int, d: int, k: int) -> int:
    """Brute-force node count; the arbiter for the closed forms."""
    return sum(1 for _ in critical_tuples(n, d, k))


def node_count_formula(n: int, d: int, k: int) -> int:
    """Closed-form node count of C(n,d,k); 0 when the criterion says smooth."""
    spec = ChebyshevSpec(n, d, k)
    if not spec.singular:
        return 0
    a = (n + k) // 2
    d1 = d // 2
    if d % 2 == 1:
        return comb(n, a) * d1**n
    return comb(n, a) * d1**a * (d1 - 1) ** (n - a)


def cc_node_count(n: int, d: int) -> int:
    """Node count of the canonical CC(n,d), by the four parity cases.

    Written independently of node_count_formula so the two can cross-check.
    For even d the count is maximal over k only when d >= n+2; the count
    itself is still correct below that, so warn rather than refuse.
    """
    if d % 2 == 0 and d < n + 2:
        warnings.warn(f"CC({n},{d}): even d below n+2, node count is not "
                      "maximal over the shift k", stacklevel=2)
    n1 = n // 2
    d1 = d // 2
    if n % 2 == 0:
        if d % 2 == 1:
            return comb(2 * n1, n1) * d1**n
        return comb(2 * n1, n1) * d1**n1 * (d1 - 1) ** n1
    if d % 2 == 0:
        return comb(2 * n1 + 1, n1) * d1 ** (n1 + 1) * (d1 - 1) ** n1
    return comb(2 * n1 + 1, n1) * d1**n


def st_formula(n: int, d: int) -> int:
    """Stability threshold of CC(n,d): T - (d-3) = n(d-2) + 1."""
    return n * (d - 2) + 1


def st_formula_check(n: int, d: int, computed_st: int) -> TheoremCheck:
    want = st_formula(n, d)
    return TheoremCheck(name="st-closed-form",
                        status="pass" if computed_st == want else "fail",
                        lhs=computed_st, rhs=want)


@dataclass
class ConjectureVerdict:
    """Comparison of a computed value against a conjectured closed form.

    Never asserts truth: agree records the comparison, label records
    whether (n, d) lies in the range where the closed form has been
    verified before.
    """

    name: str
    n: int
    d: int
    predicted: int
    computed: int
    agree: bool
    label: str


def _label(in_range: bool, agree: bool) -> str:
    if not in_range:
        return NEW_DATA_POINT
    return VERIFIED_RANGE if agree else CONFLICT_RANGE


def verify_conjectures(report: ThresholdReport,
                       defects: DefectTable) -> list[ConjectureVerdict]:
    """Evaluate the conjectured ct and defect closed forms on a canonical CC.

    n even: ct = (n1+1)d - n - 2 (previously verified for n in {4, 6},
    d <= 20). n = 3, d even: defect S_{3*d1-4} = 3(d1-1). n = 4: defect
    S_{2d-5} = floor((d-1)/2) * (3*floor((d-1)/2) - 1). Both defect forms
    previously verified for d <= 20. Anything else: no conjecture applies.
    """
    n, d = report.n, report.d
    n1 = n // 2
    d1 = d // 2
    verdicts: list[ConjectureVerdict] = []

    if n % 2 == 0 and report.ct is not None:
        predicted = (n1 + 1) * d - n - 2
        agree = report.ct == predicted
        in_range = n in (4, 6) and 3 <= d <= 20
        verdicts.append(ConjectureVerdict(
            name="ct-closed-form-even-n", n=n, d=d, predicted=predicted,
            computed=report.ct, agree=agree, label=_label(in_range, agree)))

    if n == 3 and d % 2 == 0:
        m = 3 * d1 - 4
        predicted = 3 * (d1 - 1)
        computed = defects.entries.get(m, 0)
        agree = computed == predicted
        verdicts.append(ConjectureVerdict(
            name="defect-closed-form-n3", n=n, d=d, predicted=predicted,
            computed=computed, agree=agree, label=_label(3 <= d <= 20, agree)))

    if n == 4:
        m = 2 * d - 5
        half = (d - 1) // 2
        predicted = half * (3 * half - 1)
        computed = defects.entries.get(m, 0)
        agree = computed == predicted
        verdicts.append(ConjectureVerdict(
            name="defect-closed-form-n4", n=n, d=d, predicted=predicted,
            computed=computed, agree=agree, label=_label(3 <= d <= 20, agree)))

    return verdicts
