"""Full analysis pipeline and serializable reports.

analyze() runs: Hilbert function of the Milnor algebra -> thresholds ->
defect table -> Alexander polynomial -> Betti number -> theorem checks ->
conjecture verdicts (canonical Chebyshev inputs only), and wraps the lot
in a HypersurfaceReport. Every report is linted before it leaves: the
threshold identity ct = mdr + d - 2 and all non-observational checks must
hold, otherwise a ReportLintError carries the offending report.

Nodality is proved for Chebyshev specs, in closed form: a singular point
of C(n,d,k) has every coordinate at a critical point lambda_j = cos(j*pi/d)
of T_d, the Hessian there is diag(T_d''(lambda_j)), and the Chebyshev
equation (1 - x^2) T'' - x T' + d^2 T = 0 gives T_d''(lambda_j) =
-d^2 (-1)^j / sin^2(j*pi/d), never 0; the top-degree part is a scaled
Fermat form, so no singular point lies at infinity (Rivlin, Chebyshev
Polynomials, 1990, ch. 1).  So every singular point is a node, which is
what lets the node oracle prove their strands.  Any other input is
assumed nodal unless analyze is told not to; the report says which
(`nodality`).

JSON output is canonical: keys sorted, no timestamps, timing null unless
explicitly requested, so identical configuration and seed give
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from .cache import HilbertCache, cached_hilbert_function
from .chebyshev import (ChebyshevSpec, ConjectureVerdict, build,
                        st_formula_check, verify_conjectures)
from .hilbert import (HilbertFunction, ThresholdReport, hilbert_function,
                      smooth_hilbert, thresholds)
from .linalg import RankConfig
from .monomials import num_monomials
from .poly import SparsePolynomial, format_polynomial
from .topology import (AlexanderPolynomial, BettiNumbers, DefectTable,
                       TheoremCheck, alexander_polynomial, betti_numbers,
                       check_theorem_bounds, defect_table)

SCHEMA_VERSION = 2

# the values of HypersurfaceReport.nodality
NODAL_PROVED = "proved (Chebyshev)"
NODAL_ASSUMED = "assumed"
NODAL_NOT_ASSUMED = "not assumed"


@dataclass
class RunConfig(RankConfig):
    """End-to-end configuration; defaults give the deterministic test setup.

    The rank settings (primes, seed) are inherited from RankConfig: primes
    are drawn from (2^30, 2^31) by a generator seeded from seed, so two runs
    with the same seed use the same primes everywhere.
    """

    max_degree: Optional[int] = 20
    jobs: int = 1


def check_degree_cap(n: int, d: int, cap: Optional[int]) -> None:
    """Refuse degree d in P^n above cap, saying how large the run would be."""
    if cap is None or d <= cap:
        return
    T = (n + 1) * (d - 2)
    rows = num_monomials(n + 1, T + 1)
    cols = (n + 1) * num_monomials(n + 1, T + 1 - (d - 1))
    raise ValueError(
        f"degree {d} exceeds the cap {cap}: this run would need "
        f"{T + 2} strand ranks, the largest on a {rows} x {cols} matrix "
        f"({rows * cols:,} cells); raise max_degree (--max-degree) "
        "to proceed")


class ReportLintError(RuntimeError):
    """A finished report violated an identity that must always hold."""

    def __init__(self, message: str, report: "HypersurfaceReport"):
        super().__init__(message)
        self.report = report


@dataclass
class HypersurfaceReport:
    """Everything computed about one hypersurface."""

    source: str
    n: int
    d: int
    polynomial: str
    nodality: str  # NODAL_PROVED, NODAL_ASSUMED or NODAL_NOT_ASSUMED
    hilbert: HilbertFunction
    thresholds: ThresholdReport
    defects: Optional[DefectTable]
    alexander: Optional[AlexanderPolynomial]
    betti: Optional[BettiNumbers]
    checks: list[TheoremCheck] = field(default_factory=list)
    conjectures: list[ConjectureVerdict] = field(default_factory=list)
    timing: Optional[dict] = None

    @property
    def smooth(self) -> HilbertFunction:
        return smooth_hilbert(self.n, self.d)

    @property
    def certified(self) -> bool:
        return self.hilbert.certified

    def strands(self, *proofs) -> list[int]:
        """The degrees k whose strand rank has one of the given proofs
        (None: unproved)."""
        return [k for k, r in enumerate(self.hilbert.rank_details)
                if (r.proof if r.certified else None) in proofs]

    def lint_failures(self) -> list[str]:
        """Identities that must hold in any internally consistent report."""
        bad = [f"check failed: {c.name} (lhs={c.lhs}, rhs={c.rhs})"
               for c in self.checks if c.status == "fail"]
        t = self.thresholds
        if not t.smooth and self.nodality != NODAL_NOT_ASSUMED:
            if t.ct != t.mdr + self.d - 2:
                bad.append(f"threshold identity broken: ct={t.ct}, "
                           f"mdr={t.mdr}, d={self.d}")
        for v in self.conjectures:
            if v.label.startswith("conflicts"):
                bad.append(f"conjecture conflict: {v.name} predicted "
                           f"{v.predicted}, computed {v.computed}")
        return bad

    def to_dict(self) -> dict:
        t = self.thresholds
        # each row keeps the per-prime evidence; rank follows from
        # hilbert.dims, agreement from ranks, certified is summed up in
        # certification.certified
        rank_details = [
            {"k": k, **{key: value for key, value in r.to_dict().items()
                        if key not in ("rank", "agreement", "certified")}}
            for k, r in enumerate(self.hilbert.rank_details)]
        return {
            "schema": SCHEMA_VERSION,
            "source": self.source,
            "n": self.n,
            "d": self.d,
            "polynomial": self.polynomial,
            "nodality": self.nodality,
            "hilbert": {
                "dims": list(self.hilbert.dims),
                "stable_value": self.hilbert.stable_value,
                "smooth_match": self.hilbert.smooth_match,
            },
            "smooth_reference": {"dims": list(self.smooth.dims)},
            "thresholds": {
                "T": t.T, "tau": t.tau, "ct": t.ct, "st": t.st,
                "mdr": t.mdr, "smooth": t.smooth,
            },
            "defects": self.defects.to_list() if self.defects else None,
            "alexander": {
                "sign": self.alexander.sign,
                "exponent": self.alexander.exponent,
                "trivial": self.alexander.trivial,
                "text": self.alexander.text(),
            } if self.alexander else None,
            "betti": asdict(self.betti) if self.betti else None,
            "checks": [asdict(c) for c in self.checks],
            "conjectures": [asdict(v) for v in self.conjectures],
            "certification": {
                "certified": self.certified,
                "rank_details": rank_details,
            },
            "timing": self.timing,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["k,dim_singular,dim_smooth,difference"]
        for k, a in enumerate(self.hilbert.dims):
            excess = self.hilbert.excess(k)
            lines.append(f"{k},{a},{a - excess},{excess}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        t = self.thresholds
        out = [f"source: {self.source}",
               f"n = {self.n}, d = {self.d}, T = {t.T}",
               f"hilbert series: {self.hilbert.series_text()}",
               f"smooth series:  {self.smooth.series_text()}"]
        if t.smooth:
            out.append("smooth hypersurface: thresholds coincide everywhere")
        else:
            out.append(f"tau = {t.tau}, ct = {t.ct}, st = {t.st}, "
                       f"mdr = {t.mdr}")
        if self.defects:
            out.append(self.defects.text_line())
        if self.alexander:
            out.append(f"alexander polynomial: {self.alexander.text()}")
        if self.betti:
            out.append(f"b_{self.betti.index}({self.betti.space}) = "
                       f"{self.betti.value}")
        for c in self.checks:
            out.append(f"check {c.name}: {c.status}")
        for v in self.conjectures:
            out.append(f"conjecture {v.name}: predicted {v.predicted}, "
                       f"computed {v.computed} [{v.label}]")
        out.append(f"nodality: {self.nodality}")
        agreed, unproved = self.strands("agreement"), self.strands(None)
        if self.nodality == NODAL_PROVED and agreed:
            out.append("past the oracle size cap, by prime agreement: k = "
                       + ", ".join(map(str, agreed)))
        if unproved:
            out.append("uncertified strands: k = " + ", ".join(map(str, unproved)))
        out.append(f"certified: {self.certified}")
        return "\n".join(out) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format {fmt!r}")


def analyze(f: Optional[SparsePolynomial] = None, *,
            chebyshev: Optional[ChebyshevSpec] = None,
            source: Optional[str] = None,
            config: Optional[RunConfig] = None,
            nodal: bool = True,
            cache: Optional[HilbertCache] = None) -> HypersurfaceReport:
    """Run the full pipeline on a polynomial or a Chebyshev spec.

    With a cache, the Hilbert function is read from it or computed and
    stored. A Chebyshev spec is proved nodal, and the node oracle proves
    its strands (hilbert_function). Conjecture verdicts are attached only
    for canonical Chebyshev inputs, where the closed forms apply.
    nodal=False skips every nodal-only derivation.
    """
    config = config or RunConfig()
    if (f is None) == (chebyshev is None):
        raise ValueError("pass exactly one of f or chebyshev")
    if chebyshev is not None:
        f = build(chebyshev)
        tag = "CC" if chebyshev.canonical else "C"
        shift = f"({chebyshev.n},{chebyshev.d})" if chebyshev.canonical else \
            f"({chebyshev.n},{chebyshev.d},{chebyshev.k})"
        source = source or tag + shift
    source = source or "inline"

    check_degree_cap(f.num_vars - 1, f.degree, config.max_degree)

    if cache is not None:
        hf = cached_hilbert_function(f, config, cache, jobs=config.jobs,
                                     chebyshev=chebyshev)
    else:
        hf = hilbert_function(f, config=config, jobs=config.jobs,
                              chebyshev=chebyshev)
    t = thresholds(hf)

    defects = alex = betti = None
    checks: list[TheoremCheck] = []
    verdicts: list[ConjectureVerdict] = []
    if nodal:
        defects = defect_table(hf)
        alex = alexander_polynomial(t, defects)
        try:
            betti = betti_numbers(t, defects)
        except ValueError:
            betti = None
        checks = check_theorem_bounds(hf, t, defects)
        if chebyshev is not None and chebyshev.canonical and not t.smooth:
            checks.append(st_formula_check(hf.n, hf.d, t.st))
            verdicts = verify_conjectures(t, defects)

    report = HypersurfaceReport(
        source=source, n=hf.n, d=hf.d,
        polynomial=format_polynomial(f),
        nodality=NODAL_PROVED if chebyshev is not None else
        NODAL_ASSUMED if nodal else NODAL_NOT_ASSUMED,
        hilbert=hf, thresholds=t,
        defects=defects, alexander=alex, betti=betti, checks=checks,
        conjectures=verdicts)

    failures = report.lint_failures()
    if failures:
        raise ReportLintError("; ".join(failures), report)
    return report
