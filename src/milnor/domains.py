"""Random primes and exact cyclotomic fields.

Rational coefficients are plain ints and Fractions throughout.  Cyclotomic
fields Q(zeta_m) are represented as Q[x] modulo the m-th cyclotomic
polynomial.  Their elements have the exact ring operators (+, -, *,
non-negative powers, ==, hash) and truthiness as the zero test, so they
drop into SparsePolynomial evaluation unchanged.  Nothing divides by a
field element, so there is no inverse.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

# -- primality ----------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24 with these witness bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo: int = 1 << 30, hi: int = 1 << 31) -> int:
    """A prime drawn uniformly-ish from [lo, hi) using the given RNG."""
    while True:
        candidate = rng.randrange(lo | 1, hi, 2)
        if is_probable_prime(candidate):
            return candidate


def random_prime_one_mod(rng, modulus: int, lo: int = 1 << 30, hi: int = 1 << 31) -> int:
    """A prime p with p = 1 (mod modulus), drawn from [lo, hi)."""
    t_lo = (lo - 1) // modulus + 1
    t_hi = (hi - 1) // modulus
    if t_hi <= t_lo:
        raise ValueError("window too small for the requested congruence")
    while True:
        p = modulus * rng.randrange(t_lo, t_hi) + 1
        if is_probable_prime(p):
            return p


def draw_distinct_primes(rng, count: int, modulus: int | None = None,
                         lo: int = 1 << 30, hi: int = 1 << 31,
                         exclude=()) -> list[int]:
    """Distinct primes from the RNG stream, optionally all = 1 mod modulus."""
    seen = set(exclude)
    out: list[int] = []
    while len(out) < count:
        p = (random_prime_one_mod(rng, modulus, lo, hi) if modulus
             else random_prime(rng, lo, hi))
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m, increasing, by trial division."""
    out, q = [], 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    return out + [m] if m > 1 else out


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    result = m
    for q in prime_factors(m):
        result -= result // q
    return result


# -- cyclotomic fields -----------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, low degree first.

    Computed as (x^m - 1) / prod of Phi_d over proper divisors d of m.
    """
    if m < 1:
        raise ValueError("order must be positive")
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_exact_div_int(num, list(cyclotomic_polynomial(d)))
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return tuple(num)


def _poly_exact_div_int(num: list[int], den: list[int]) -> list[int]:
    # long division of integer polynomials known to divide exactly; den is monic
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        q = num[shift + len(den) - 1]
        out[shift] = q
        if q:
            for i, c in enumerate(den):
                num[shift + i] -= q * c
    if any(num[: len(den) - 1]):
        raise ArithmeticError("division was not exact")
    return out


class CyclotomicElement:
    """Element of Q(zeta_m) as a coefficient vector on 1, x, ..., x^(phi-1)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs):
        self.field = field
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > field.phi:
            raise ValueError("coefficient vector too long")
        vec.extend([Fraction(0)] * (field.phi - len(vec)))
        self.coeffs = tuple(vec)

    def _lift(self, other):
        if isinstance(other, CyclotomicElement):
            if other.field.order != self.field.order:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicElement(
            self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.field, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicElement(
            self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        phi = self.field.phi
        prod = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        # fold powers x^j, j >= phi, using the cached reduction rows
        out = prod[:phi]
        for j in range(phi, len(prod)):
            c = prod[j]
            if c:
                for i, r in enumerate(self.field.reduction_rows[j - phi]):
                    if r:
                        out[i] += c * r
        return CyclotomicElement(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent: no division in this field")
        base = self
        result = self.field.one()
        while e:
            if e & 1:
                result = result * base
            if e > 1:
                base = base * base
            e >>= 1
        return result

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, CyclotomicElement):
            return self.field.order == other.field.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == self.field.scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def vector_text(self) -> str:
        """Bracketed coefficient list, integers kept plain: [1, -1/2, 0, ...]."""
        parts = [str(int(c)) if c.denominator == 1 else str(c) for c in self.coeffs]
        return "[" + ", ".join(parts) + "]"

    def __repr__(self):
        return f"Cyclotomic({self.field.order}){self.vector_text()}"


class CyclotomicField:
    """Q(zeta_m) with zeta_m = exp(2*pi*i/m), as Q[x] mod the m-th cyclotomic polynomial."""

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.phi = len(self.modulus) - 1
        # reduction_rows[j] expresses x^(phi+j) on the basis 1..x^(phi-1)
        rows: list[tuple[int, ...]] = []
        first = [-c for c in self.modulus[:-1]]  # modulus is monic
        rows.append(tuple(first))
        for _ in range(self.phi - 2):
            prev = rows[-1]
            shifted = [0] + list(prev[:-1])
            carry = prev[-1]
            if carry:
                for i, c in enumerate(first):
                    shifted[i] += carry * c
            rows.append(tuple(shifted))
        self.reduction_rows = tuple(rows)

    def zero(self) -> CyclotomicElement:
        return CyclotomicElement(self, [])

    def one(self) -> CyclotomicElement:
        return CyclotomicElement(self, [1])

    def scalar(self, c) -> CyclotomicElement:
        return CyclotomicElement(self, [c])

    def zeta(self, power: int = 1) -> CyclotomicElement:
        """zeta_m^power, reduced into the basis."""
        power %= self.order
        if power < self.phi:
            coeffs = [0] * power + [1]
            return CyclotomicElement(self, coeffs)
        x = CyclotomicElement(self, [0, 1]) if self.phi > 1 else self.scalar(
            -self.modulus[0]
        )
        return x**power

    def cos_root(self, j: int, denominator: int) -> CyclotomicElement:
        """cos(j*pi/denominator) inside Q(zeta_m); requires m divisible by 2*denominator."""
        if self.order % (2 * denominator):
            raise ValueError("field too small for this angle")
        step = self.order // (2 * denominator)
        z = self.zeta(step * j)
        zbar = self.zeta(self.order - step * j % self.order)
        return (z + zbar) * Fraction(1, 2)

    def __repr__(self):
        return f"CyclotomicField({self.order})"
