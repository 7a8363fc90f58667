"""Hilbert functions of Milnor (Jacobian) algebras and threshold invariants.

For a degree-d hypersurface V(f) in P^n with gradient f_0, ..., f_n, the
Milnor algebra is M(f) = S/J_f with S the polynomial ring in n+1 variables.
Each graded piece satisfies dim M(f)_k = dim S_k - rank(strand k), so the
whole Hilbert function reduces to certified strand ranks.

For smooth f the Hilbert function is the closed form with generating series
((1 - t^(d-1)) / (1 - t))^(n+1): palindromic, supported on 0..T with
T = (n+1)(d-2).  For nodal f the dimensions agree with the smooth reference
in low degrees (up to the coincidence threshold ct), and stabilize at the
global Tjurina number tau = |nodes| in high degrees (from the stability
threshold st on).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .linalg import RankConfig, RankResult, certified_rank, jacobian_strand_matrix
from .monomials import num_monomials
from .poly import SparsePolynomial, partial_derivatives


class NotNodalError(ValueError):
    """Hilbert function did not stabilize where nodal input must."""


@dataclass
class HilbertFunction:
    """dims[k] = dim M(f)_k for 0 <= k <= k_max, plus stabilization data."""

    dims: list[int]
    n: int
    d: int
    stable_value: int | None = None  # tau once stabilized; 0 for smooth input
    smooth_match: bool = False       # equals the smooth reference on 0..k_max
    certified: bool = True
    rank_details: list[RankResult] = field(default_factory=list, repr=False)

    @property
    def k_max(self) -> int:
        return len(self.dims) - 1

    @property
    def T(self) -> int:
        return (self.n + 1) * (self.d - 2)

    def dim(self, k: int) -> int:
        """dim M(f)_k, extending beyond k_max where the tail is known."""
        if k < 0:
            return 0
        if k <= self.k_max:
            return self.dims[k]
        if self.smooth_match and self.k_max >= self.T:
            return 0
        if self.stable_value is not None and self.k_max >= self.T:
            return self.stable_value
        raise ValueError(f"degree {k} beyond computed range {self.k_max}")

    def series_text(self) -> str:
        return ", ".join(str(v) for v in self.dims)


def smooth_hilbert(n: int, d: int) -> HilbertFunction:
    """Hilbert function of the Milnor algebra of any smooth degree-d form in P^n."""
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    block = [1] * (d - 1)  # 1 + t + ... + t^(d-2)
    dims = [1]
    for _ in range(n + 1):
        out = [0] * (len(dims) + d - 2)
        for i, a in enumerate(dims):
            if a:
                for j, b in enumerate(block):
                    out[i + j] += a * b
        dims = out
    dims.append(0)  # through T+1
    return HilbertFunction(
        dims=dims, n=n, d=d, stable_value=0, smooth_match=True, certified=True
    )


def hilbert_function(
    f: SparsePolynomial,
    config: RankConfig | None = None,
    jobs: int = 1,
) -> HilbertFunction:
    """Certified Hilbert function of M(f) for homogeneous f with isolated singularities.

    Computes dims 0..T+1, enough for every derived invariant.
    Raises NotNodalError when the input is neither smooth-matching nor
    stabilized at T, which is how non-isolated or badly degenerate input
    surfaces.
    """
    if config is None:
        config = RankConfig()
    if f.is_zero or not f.is_homogeneous:
        raise ValueError("input must be a nonzero homogeneous polynomial")
    d = f.degree
    if d < 2:
        raise ValueError("degree must be at least 2")
    n = f.num_vars - 1
    T = (n + 1) * (d - 2)
    grad = partial_derivatives(f, d)
    ks = list(range(T + 2))
    results = parallel_map(_strand_rank, [(grad, k, config) for k in ks], jobs)
    dims = [num_monomials(n + 1, k) - res.rank for k, res in zip(ks, results)]
    smooth = smooth_hilbert(n, d)
    smooth_match = all(dims[k] == smooth.dim(k) for k in ks)
    if not smooth_match and dims[T] != dims[T + 1]:
        raise NotNodalError(
            f"dim M(f) does not stabilize at T={T} "
            f"({dims[T]} then {dims[T + 1]}); "
            "input is not nodal or has non-isolated singularities"
        )
    return HilbertFunction(
        dims=dims,
        n=n,
        d=d,
        stable_value=0 if smooth_match else dims[T],
        smooth_match=smooth_match,
        certified=all(res.certified for res in results),
        rank_details=list(results),
    )


def parallel_map(fn, tasks: list, jobs: int = 1) -> list:
    """[fn(t) for t in tasks], in input order, on a process pool if jobs > 1.

    One task, or jobs = 1, runs in this process.  A fork pool starts all
    its workers at once, so it gets no more workers than tasks.
    """
    if jobs < 2 or len(tasks) < 2:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def _strand_rank(args) -> RankResult:
    grad, k, config = args
    matrix = jacobian_strand_matrix(grad, k)
    return certified_rank(matrix, config, salt=f"strand-{k}")


@dataclass
class ThresholdReport:
    """Coincidence/stability thresholds and the Tjurina number of one hypersurface."""

    n: int
    d: int
    T: int
    tau: int
    ct: int | None    # None for smooth input (coincidence never fails)
    st: int
    mdr: int | None   # first Koszul cohomology degree, shifted; None if none exists
    smooth: bool
    certified: bool


def thresholds(
    hf: HilbertFunction, smooth: HilbertFunction, d: int
) -> ThresholdReport:
    """Read ct, st, mdr and tau off a computed Hilbert function.

    ct is the largest q with dim M(f)_k = dim M(f_s)_k for all k <= q; st is
    the smallest q with dim M(f)_k = tau for all k >= q; mdr is the smallest
    q such that the degree q+n piece of the top Koszul cohomology of the
    gradient is nonzero.
    """
    if hf.n != smooth.n or hf.d != smooth.d or hf.d != d:
        raise ValueError("mismatched Hilbert functions")
    n = hf.n
    T = hf.T
    if hf.k_max < T + 1:
        raise ValueError("need dimensions through T+1 to derive thresholds")
    if hf.stable_value is None:
        raise NotNodalError("Hilbert function did not stabilize")
    tau = hf.stable_value
    if hf.smooth_match:
        return ThresholdReport(
            n=n, d=d, T=T, tau=0, ct=None, st=T + 1, mdr=None,
            smooth=True, certified=hf.certified,
        )
    ct = 0
    while hf.dim(ct + 1) == smooth.dim(ct + 1):
        ct += 1
    st = T + 1
    while st > 0 and hf.dim(st - 1) == tau:
        st -= 1
    mdr = None
    for q in range(0, T + n + 2):
        if koszul_hn_dim(hf, smooth, n, d, q + n):
            mdr = q
            break
    return ThresholdReport(
        n=n, d=d, T=T, tau=tau, ct=ct, st=st, mdr=mdr,
        smooth=False, certified=hf.certified,
    )


def koszul_hn_dim(
    hf: HilbertFunction, smooth: HilbertFunction, n: int, d: int, m: int
) -> int:
    """dim of the degree-m piece of H^n of the Koszul complex of the gradient.

    Equals the excess of dim M(f) over the smooth reference in degree
    m + d - n - 1.  The index must lie in the computed (or known-stable)
    range.
    """
    idx = m + d - n - 1
    if idx < 0:
        return 0
    return hf.dim(idx) - smooth.dim(idx)
