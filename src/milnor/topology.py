"""Defects, Alexander polynomials, and Betti numbers of nodal hypersurfaces.

Everything here is derived from Hilbert-function data. For a nodal
hypersurface D: f = 0 with node set N and T = (n+1)(d-2), the defect of
the degree-k linear system through N is recovered as

    defect S_k(N) = dim M(f)_{T-k} - dim M(f_s)_{T-k}

where f_s is any smooth form of the same degree (HilbertFunction.excess,
so no smooth reference, n or d is passed). The identity is used for
all 0 <= k <= T; the vanishing tail (k >= T - ct) and the saturation range
(defect = |N| - dim S_k for small k) are re-checked, not assumed. The
module also evaluates the closed-form consequences for the Alexander
polynomial of D and the middle Betti numbers, all of which are powers of
defects, and packages the inequalities the thresholds must satisfy into
machine-checkable records, given the caller's defect table.

Nodality is taken from the caller: analyze proves it for Chebyshev specs
and assumes it for any other input, and its report says which
(HypersurfaceReport.nodality).  Nothing here verifies singularity types.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .hilbert import HilbertFunction, ThresholdReport, koszul_hn_dim
from .monomials import num_monomials

__all__ = [
    "DefectTable",
    "AlexanderPolynomial",
    "BettiNumbers",
    "TheoremCheck",
    "defect",
    "defect_table",
    "alexander_polynomial",
    "betti_numbers",
    "check_theorem_bounds",
]


def defect(hf: HilbertFunction, k: int) -> int:
    """defect S_k(N) for 0 <= k <= T, from the Hilbert-function difference."""
    T = hf.T
    if not 0 <= k <= T:
        raise ValueError(f"defect degree {k} outside [0, {T}]")
    return hf.excess(T - k)


@dataclass
class DefectTable:
    """defect S_k(N) for every 0 <= k <= T, plus the node count |N| = tau."""

    entries: dict[int, int]
    node_count: int
    T: int

    def defect(self, k: int) -> int:
        if k not in self.entries:
            raise ValueError(f"defect degree {k} outside [0, {self.T}]")
        return self.entries[k]

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.entries.items())

    def nonzero(self) -> list[tuple[int, int]]:
        return [(k, v) for k, v in self.items() if v]

    def to_list(self) -> list[list[int]]:
        """[[k, S_k], ...] for 0 <= k <= T, as JSON reports carry it."""
        return [[k, v] for k, v in self.items()]

    def text_line(self) -> str:
        return "nonzero defects: " + (
            ", ".join(f"S_{k}={v}" for k, v in self.nonzero()) or "none")


def defect_table(hf: HilbertFunction) -> DefectTable:
    T = hf.T
    entries = {k: defect(hf, k) for k in range(T + 1)}
    return DefectTable(entries=entries, node_count=hf.stable_value or 0, T=T)


@dataclass
class AlexanderPolynomial:
    """Delta_D(t) = (t + sign)^exponent, with Delta = 1 encoded as exponent 0."""

    sign: int
    exponent: int

    @property
    def trivial(self) -> bool:
        return self.exponent == 0

    def text(self) -> str:
        if self.trivial:
            return "1"
        base = "(t + 1)" if self.sign > 0 else "(t - 1)"
        return base if self.exponent == 1 else f"{base}^{self.exponent}"


def alexander_polynomial(report: ThresholdReport,
                         defects: DefectTable) -> AlexanderPolynomial:
    """Alexander polynomial of a nodal hypersurface.

    Trivial whenever n*d is odd; otherwise a pure power of (t + (-1)^(n+1))
    whose exponent is the defect at m = n*d/2 - n - 1.
    """
    n, d = report.n, report.d
    sign = 1 if (n + 1) % 2 == 0 else -1
    if (n * d) % 2 == 1:
        return AlexanderPolynomial(sign=sign, exponent=0)
    m = (n * d) // 2 - n - 1
    exponent = defects.entries.get(m, 0) if 0 <= m <= defects.T else 0
    return AlexanderPolynomial(sign=sign, exponent=exponent)


@dataclass
class BettiNumbers:
    """Middle Betti number determined by a single defect value.

    For n even this is b_n of the hypersurface itself; for n odd and d even
    it is b_{n+1} of the double cover of P^n ramified along it.
    """

    index: int
    value: int
    space: str  # "hypersurface" or "double cover"
    defect_degree: int


def betti_numbers(report: ThresholdReport, defects: DefectTable) -> BettiNumbers:
    n, d = report.n, report.d
    if n % 2 == 0:
        n1 = n // 2
        m = n1 * d - 2 * n1 - 1
        value = defects.entries.get(m, 0) + 1 if m >= 0 else 1
        return BettiNumbers(index=n, value=value, space="hypersurface",
                            defect_degree=m)
    if d % 2 == 0:
        m = (n * d) // 2 - n - 1
        value = 1 + (defects.entries.get(m, 0) if m >= 0 else 0)
        return BettiNumbers(index=n + 1, value=value, space="double cover",
                            defect_degree=m)
    raise ValueError(f"not defined for this (n, d) = ({n}, {d}): "
                     "needs n even, or d even for the double cover")


@dataclass
class TheoremCheck:
    """One verified inequality or identity; lhs/rhs are the compared values."""

    name: str
    status: str  # "pass", "fail", "vacuous", or "flag" (observation only)
    lhs: object = None
    rhs: object = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _check(name, cond, lhs=None, rhs=None, detail="") -> TheoremCheck:
    return TheoremCheck(name=name, status="pass" if cond else "fail",
                        lhs=lhs, rhs=rhs, detail=detail)


def check_theorem_bounds(hf: HilbertFunction, report: ThresholdReport,
                         defects: DefectTable) -> list[TheoremCheck]:
    """Evaluate every applicable bound and identity against computed data.

    Returns one record per check. Failures indicate either a genuinely
    non-nodal input or a computation bug; the monotonicity entry is an
    observation and can only be "pass" or "flag".
    """
    n, d, T = report.n, report.d, report.T
    n1 = n // 2
    checks: list[TheoremCheck] = []

    tau = defects.node_count

    # low-degree Koszul cohomology vanishes up to a parity-dependent bound
    koszul_bound = n1 * d if n % 2 == 1 else n1 * d - 1
    worst = max((abs(koszul_hn_dim(hf, m))
                 for m in range(koszul_bound + 1)), default=0)
    checks.append(_check("koszul-low-degree-vanishing", worst == 0,
                         lhs=worst, rhs=0,
                         detail=f"H^n dims for m <= {koszul_bound}"))

    # ct lower bound, parity dependent
    ct_bound = (n1 + 1) * d - n - 1 if n % 2 == 1 else (n1 + 1) * d - n - 2
    if report.smooth:
        checks.append(TheoremCheck("ct-lower-bound", "vacuous",
                                   detail="smooth input"))
    else:
        checks.append(_check("ct-lower-bound", report.ct >= ct_bound,
                             lhs=report.ct, rhs=ct_bound))

    # defects vanish from an unconditional parity bound upward
    uncond = (n1 + 1) * d - n - 1 if n % 2 == 1 else n1 * d - n
    bad = [k for k in range(max(0, uncond), T + 1) if defects.entries[k] != 0]
    checks.append(_check("defect-zero-tail-unconditional", not bad,
                         lhs=len(bad), rhs=0,
                         detail=f"k >= {uncond}"))

    # defects vanish for k >= T - ct
    if report.smooth:
        checks.append(TheoremCheck("defect-zero-tail", "vacuous",
                                   detail="smooth input"))
    else:
        lo = max(0, T - report.ct)
        bad = [k for k in range(lo, T + 1) if defects.entries[k] != 0]
        checks.append(_check("defect-zero-tail", not bad,
                             lhs=len(bad), rhs=0, detail=f"k >= {lo}"))

    # saturation: nodes impose independent conditions in low degrees, so
    # defect = |N| - dim S_k there; meaningful only while dim S_k <= |N|,
    # hence the extra cap at d - 2
    hi = min(T - report.st, d - 2)
    sat_bad = []
    for k in range(0, hi + 1):
        want = tau - num_monomials(n + 1, k)
        if defects.entries[k] != want:
            sat_bad.append(k)
    if hi < 0:
        checks.append(TheoremCheck("defect-saturation", "vacuous",
                                   detail="empty saturation range"))
    else:
        checks.append(_check("defect-saturation", not sat_bad,
                             lhs=len(sat_bad), rhs=0, detail=f"k <= {hi}"))

    # defects live in [0, |N|]
    out_of_range = [k for k, v in defects.items() if not 0 <= v <= tau]
    checks.append(_check("defect-range", not out_of_range,
                         lhs=len(out_of_range), rhs=0))

    alex = alexander_polynomial(report, defects)

    # nontrivial Alexander polynomial iff ct is small, for nd even
    if (n * d) % 2 == 0 and not report.smooth:
        crit = (n * d) // 2 + d - n - 1
        checks.append(_check("alexander-criterion",
                             (alex.exponent > 0) == (report.ct < crit),
                             lhs=alex.exponent, rhs=crit,
                             detail=f"ct = {report.ct}"))
    else:
        checks.append(TheoremCheck("alexander-criterion", "vacuous",
                                   detail="nd odd or smooth input"))

    # for n even the criterion is an equality on ct
    if n % 2 == 0 and not report.smooth:
        tight = (n * d) // 2 + d - n - 2
        checks.append(_check("alexander-tightness-even-n",
                             (alex.exponent > 0) == (report.ct == tight),
                             lhs=report.ct, rhs=tight,
                             detail=f"exponent = {alex.exponent}"))
    else:
        checks.append(TheoremCheck("alexander-tightness-even-n", "vacuous",
                                   detail="n odd or smooth input"))

    # for n even, the Koszul dimension at m = n1*d equals b_n - 1
    if n % 2 == 0:
        betti = betti_numbers(report, defects)
        kd = koszul_hn_dim(hf, n1 * d)
        checks.append(_check("koszul-betti-consistency", kd == betti.value - 1,
                             lhs=kd, rhs=betti.value - 1))
    else:
        checks.append(TheoremCheck("koszul-betti-consistency", "vacuous",
                                   detail="n odd"))

    # observed on every example so far, but not a theorem: flag, never fail
    values = [v for _, v in defects.items()]
    monotone = all(a >= b for a, b in zip(values, values[1:]))
    checks.append(TheoremCheck("defect-monotonicity",
                               "pass" if monotone else "flag",
                               detail="non-increasing over [0, T]"))

    return checks
