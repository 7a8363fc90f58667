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
threshold st on).  A HilbertFunction keeps its dims and strand ranks;
smooth_match, stable_value and certified are read off them, and so is the
excess over the smooth reference that thresholds and koszul_hn_dim use.

For a Chebyshev hypersurface C(n,d,k), whose singular points are all nodes,
every value is also proved by the node oracle: with N the node set,
dim M(f)_j = dim M(f_s)_j + defect S_(T-j)(N) for 0 <= j <= T, and
dim M(f)_(T+1) = |N| (milnor.topology).  Every strand, of any input, is
ranked at the first prime of its stream; hilbert_function(chebyshev=spec)
asks the oracle (_oracle_rank) for the strand's proved rank only where
neither exact elimination nor full rank proves it there, and only a strand
that no proof covers is ranked at the rest of its stream; see
linalg.certified_rank.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cache, partial
from math import comb

from .linalg import (ORACLE_SIDE, RankConfig, RankResult, certified_rank,
                     jacobian_strand_matrix)
from .monomials import num_monomials
from .poly import SparsePolynomial, partial_derivatives


class NotNodalError(ValueError):
    """Hilbert function did not stabilize where nodal input must."""


@dataclass
class HilbertFunction:
    """dims[k] = dim M(f)_k for 0 <= k <= k_max, and the strand ranks behind them."""

    dims: list[int]
    n: int
    d: int
    rank_details: list[RankResult] = field(default_factory=list, repr=False)

    @classmethod
    def from_ranks(cls, n: int, d: int, ranks: list[RankResult]) -> HilbertFunction:
        """dims[k] = dim S_k - the rank of strand k, for each rank given."""
        dims = [num_monomials(n + 1, k) - res.rank for k, res in enumerate(ranks)]
        return cls(dims=dims, n=n, d=d, rank_details=list(ranks))

    @property
    def k_max(self) -> int:
        return len(self.dims) - 1

    @property
    def T(self) -> int:
        return (self.n + 1) * (self.d - 2)

    @property
    def smooth_match(self) -> bool:
        """dims equal the smooth reference on 0..k_max."""
        return not any(self.excess(k) for k in range(len(self.dims)))

    @property
    def stable_value(self) -> int | None:
        """tau: 0 if smooth, dims[T] if dims[T+1] repeats it, else None."""
        if self.smooth_match:
            return 0
        T, dims = self.T, self.dims
        return dims[T] if self.k_max > T and dims[T] == dims[T + 1] else None

    @property
    def certified(self) -> bool:
        """Every dim is read off a certified rank (smooth_hilbert's are not)."""
        ranks = self.rank_details
        return len(ranks) == len(self.dims) and all(res.certified for res in ranks)

    def dim(self, k: int) -> int:
        """dim M(f)_k, extending beyond k_max where the tail is known."""
        if k < 0:
            return 0
        if k <= self.k_max:
            return self.dims[k]
        if self.k_max >= self.T and self.stable_value is not None:
            return self.stable_value
        raise ValueError(f"degree {k} beyond computed range {self.k_max}")

    def excess(self, k: int) -> int:
        """dim M(f)_k minus its value for a smooth form of the same degree."""
        smooth = _smooth_dims(self.n, self.d)
        return self.dim(k) - (smooth[k] if 0 <= k < len(smooth) else 0)

    def series_text(self) -> str:
        return ", ".join(str(v) for v in self.dims)


def smooth_hilbert(n: int, d: int) -> HilbertFunction:
    """Hilbert function of the Milnor algebra of any smooth degree-d form in P^n."""
    return HilbertFunction(list(_smooth_dims(n, d)), n, d)


@cache
def _smooth_dims(n: int, d: int) -> tuple[int, ...]:
    """The closed form ((1 - t^(d-1)) / (1 - t))^(n+1) through T+1."""
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
    return (*dims, 0)  # through T+1


def hilbert_function(
    f: SparsePolynomial,
    config: RankConfig | None = None,
    jobs: int = 1,
    chebyshev=None,
) -> HilbertFunction:
    """Certified Hilbert function of M(f) for homogeneous f with isolated singularities.

    Computes dims 0..T+1, enough for every derived invariant.
    Raises NotNodalError when the input is neither smooth-matching nor
    stabilized at T, which is how non-isolated or badly degenerate input
    surfaces.  chebyshev, the ChebyshevSpec that f was built from, lets
    the node oracle prove the strands (see the module docstring);
    ValueError if f is not build(chebyshev).
    """
    if config is None:
        config = RankConfig()
    if f.is_zero or not f.is_homogeneous:
        raise ValueError("input must be a nonzero homogeneous polynomial")
    if chebyshev is not None:
        from .chebyshev import build
        if build(chebyshev) != f:
            raise ValueError(f"the polynomial is not the one of {chebyshev}")
    d = f.degree
    if d < 2:
        raise ValueError("degree must be at least 2")
    n = f.num_vars - 1
    T = (n + 1) * (d - 2)
    grad = partial_derivatives(f, d)
    results = parallel_map(_strand_rank,
                           [(grad, k, config, chebyshev) for k in range(T + 2)], jobs)
    hf = HilbertFunction.from_ranks(n, d, results)
    if hf.stable_value is None:
        raise NotNodalError(
            f"dim M(f) does not stabilize at T={T} "
            f"({hf.dims[T]} then {hf.dims[T + 1]}); "
            "input is not nodal or has non-isolated singularities"
        )
    return hf


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
    grad, k, config, spec = args
    matrix = jacobian_strand_matrix(grad, k)
    oracle = None if spec is None else partial(_oracle_rank, spec, config.seed, k)
    return certified_rank(matrix, config, salt=f"strand-{k}", oracle=oracle)


def _oracle_rank(spec, seed, k: int) -> int | None:
    """The rank of strand k of build(spec), proved by the node oracle:
    dim S_k - dim M(f)_k, with dim M(f)_k the smooth value plus the defect
    of the node set in degree T - k (0 when C(n,d,k) is smooth), or |N| at
    k = T+1.  None when both sides of the evaluation matrix,
    |N| x C(n+T-k, n), exceed ORACLE_SIDE."""
    from .chebyshev import node_count_formula
    from .nodes import OracleConfig, defect_direct
    n, d = spec.n, spec.d
    T = (n + 1) * (d - 2)
    nodes = node_count_formula(n, d, spec.k)
    if k > T:
        dim = nodes
    elif min(nodes, comb(n + T - k, n)) > ORACLE_SIDE:
        return None
    else:
        dim = _smooth_dims(n, d)[k] + (defect_direct(n, d, T - k, OracleConfig(seed),
                                                     k_shift=spec.k) if nodes else 0)
    return num_monomials(n + 1, k) - dim


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


def thresholds(hf: HilbertFunction) -> ThresholdReport:
    """Read ct, st, mdr and tau off a computed Hilbert function.

    ct is the largest q with dim M(f)_k = dim M(f_s)_k for all k <= q; st is
    the smallest q with dim M(f)_k = tau for all k >= q; mdr is the smallest
    q such that the degree q+n piece of the top Koszul cohomology of the
    gradient is nonzero.
    """
    n, d, T = hf.n, hf.d, hf.T
    if hf.k_max < T + 1:
        raise ValueError("need dimensions through T+1 to derive thresholds")
    tau = hf.stable_value
    if tau is None:
        raise NotNodalError("Hilbert function did not stabilize")
    if hf.smooth_match:
        return ThresholdReport(n=n, d=d, T=T, tau=0, ct=None, st=T + 1,
                               mdr=None, smooth=True)
    # stops by T+1: tau = dims[T] = dims[T+1] differs from the smooth
    # reference's 1 at T or its 0 at T+1
    ct = 0
    while hf.excess(ct + 1) == 0:
        ct += 1
    st = T + 1
    while st > 0 and hf.dim(st - 1) == tau:
        st -= 1
    mdr = None
    for q in range(0, T + n + 2):
        if koszul_hn_dim(hf, q + n):
            mdr = q
            break
    return ThresholdReport(n=n, d=d, T=T, tau=tau, ct=ct, st=st, mdr=mdr,
                           smooth=False)


def koszul_hn_dim(hf: HilbertFunction, m: int) -> int:
    """dim of the degree-m piece of H^n of the Koszul complex of the gradient.

    Equals the excess of dim M(f) over the smooth reference in degree
    m + d - n - 1.  The index must lie in the computed (or known-stable)
    range.
    """
    return hf.excess(m + hf.d - hf.n - 1)
