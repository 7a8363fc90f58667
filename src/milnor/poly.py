"""Sparse multivariate polynomials with exact coefficients.

Coefficients are plain Python ints or fractions.Fraction by default; any
coefficient type with ring operators and truthiness (zero tests as falsy)
works, so cyclotomic field elements plug in unchanged.

The text format is `coeff*x<i>^<e>*...` terms joined by +/-, e.g.
``8*x1^4 - 8*x1^2*x0^2 + 2*x0^4``.  The printer emits a canonical order
(degree descending, then reversed-exponent lex descending), so formatted
files are stable and diffable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .monomials import Monomial, unit_monomial


class SparsePolynomial:
    """Polynomial stored as a dict mapping Monomial -> nonzero coefficient."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms=None):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        self.num_vars = num_vars
        clean: dict[Monomial, object] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for mono, coeff in items:
                if not coeff:
                    continue
                if not isinstance(mono, Monomial):
                    mono = Monomial(mono)
                if len(mono) != num_vars:
                    raise ValueError(
                        f"exponent vector {tuple(mono)} has length {len(mono)}, "
                        f"expected {num_vars}"
                    )
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {tuple(mono)}")
                if mono in clean:
                    coeff = clean[mono] + coeff
                    if coeff:
                        clean[mono] = coeff
                    else:
                        del clean[mono]
                else:
                    clean[mono] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> SparsePolynomial:
        return cls(num_vars)

    @classmethod
    def constant(cls, num_vars: int, c) -> SparsePolynomial:
        return cls(num_vars, {Monomial((0,) * num_vars): c})

    @classmethod
    def variable(cls, num_vars: int, i: int) -> SparsePolynomial:
        return cls(num_vars, {unit_monomial(num_vars, i): 1})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree for m in self.terms)

    @property
    def is_homogeneous(self) -> bool:
        degrees = {m.degree for m in self.terms}
        return len(degrees) <= 1

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        """Terms in canonical print order (degree, reversed exponents) descending."""
        return sorted(
            self.terms.items(),
            key=lambda item: (item[0].degree, tuple(reversed(item[0]))),
            reverse=True,
        )

    # -- ring operators ----------------------------------------------------

    def _check_ring(self, other: SparsePolynomial) -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._check_ring(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        result = SparsePolynomial(self.num_vars)
        result.terms = out
        return result

    def __neg__(self):
        result = SparsePolynomial(self.num_vars)
        result.terms = {m: -c for m, c in self.terms.items()}
        return result

    def __sub__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SparsePolynomial):
            return self.scale(other)
        self._check_ring(other)
        out: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 * m2
                prod = c1 * c2
                acc = out.get(mono)
                acc = prod if acc is None else acc + prod
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        result = SparsePolynomial(self.num_vars)
        result.terms = out
        return result

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> SparsePolynomial:
        if not c:
            return SparsePolynomial(self.num_vars)
        result = SparsePolynomial(self.num_vars)
        result.terms = {m: c * coeff for m, coeff in self.terms.items()}
        return result

    def __pow__(self, e: int) -> SparsePolynomial:
        if e < 0:
            raise ValueError("negative power")
        result = SparsePolynomial.constant(self.num_vars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e > 1
            if base_needed:
                base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    __hash__ = None

    # -- maps and substitution ----------------------------------------------

    def evaluate(self, values):
        """Full substitution; values is one scalar per variable."""
        if len(values) != self.num_vars:
            raise ValueError("need one value per variable")
        total = 0
        for mono, coeff in self.sorted_terms():
            prod = coeff
            for v, e in zip(values, mono):
                for _ in range(e):
                    prod = prod * v
            total = total + prod
        return total

    def substitute(self, assignments: dict[int, object]) -> SparsePolynomial:
        """Substitute scalars for some variables; result keeps num_vars slots."""
        for i in assignments:
            if not 0 <= i < self.num_vars:
                raise ValueError(f"variable index {i} out of range")
        out = SparsePolynomial(self.num_vars)
        acc: dict[Monomial, object] = {}
        for mono, coeff in self.terms.items():
            new_exp = list(mono)
            for i, value in assignments.items():
                e = mono[i]
                if e:
                    for _ in range(e):
                        coeff = coeff * value
                    new_exp[i] = 0
            if not coeff:
                continue
            key = Monomial(new_exp)
            prev = acc.get(key)
            prev = coeff if prev is None else prev + coeff
            if prev:
                acc[key] = prev
            else:
                acc.pop(key, None)
        out.terms = acc
        return out

    def embed(self, num_vars: int, var_map: dict[int, int]) -> SparsePolynomial:
        """Relabel variables into a (possibly larger) ring; var_map is old -> new."""
        out: dict[Monomial, object] = {}
        for mono, coeff in self.terms.items():
            exp = [0] * num_vars
            for old, e in enumerate(mono):
                if e:
                    exp[var_map[old]] += e
            key = Monomial(exp)
            prev = out.get(key)
            prev = coeff if prev is None else prev + coeff
            if prev:
                out[key] = prev
            else:
                out.pop(key, None)
        result = SparsePolynomial(num_vars)
        result.terms = out
        return result

    def partial_derivative(self, i: int) -> SparsePolynomial:
        if not 0 <= i < self.num_vars:
            raise ValueError(f"variable index {i} out of range")
        out: dict[Monomial, object] = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if not e:
                continue
            lowered = list(mono)
            lowered[i] = e - 1
            out[Monomial(lowered)] = coeff * e
        result = SparsePolynomial(self.num_vars)
        result.terms = out
        return result

    def text(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<poly {self.text()}>"


# -- homogenization ----------------------------------------------------------


def homogenize(g: SparsePolynomial, d: int, var: int = 0) -> SparsePolynomial:
    """Homogenize to degree d using the given variable (default x0).

    g must not involve the homogenizing variable and must have degree <= d.
    """
    if g.is_zero:
        return SparsePolynomial(g.num_vars)
    if g.degree > d:
        raise ValueError(f"degree {g.degree} exceeds target {d}")
    out: dict[Monomial, object] = {}
    for mono, coeff in g.terms.items():
        if mono[var]:
            raise ValueError(f"input already involves x{var}")
        exp = list(mono)
        exp[var] = d - mono.degree
        out[Monomial(exp)] = coeff
    result = SparsePolynomial(g.num_vars)
    result.terms = out
    return result


def dehomogenize(f: SparsePolynomial, var: int = 0) -> SparsePolynomial:
    """Set the given variable to 1; the slot stays in place with exponent 0."""
    return f.substitute({var: 1})


def partial_derivatives(f: SparsePolynomial, d: int) -> list[SparsePolynomial]:
    """The full gradient of a homogeneous polynomial of degree d."""
    if not f.is_homogeneous or f.degree != d:
        raise ValueError(f"input is not homogeneous of degree {d}")
    return [f.partial_derivative(i) for i in range(f.num_vars)]


# -- Chebyshev polynomials ----------------------------------------------------


@lru_cache(maxsize=None)
def _chebyshev_coeffs(d: int) -> tuple[int, ...]:
    # dense coefficient list, index = exponent; integer three-term recurrence
    if d == 0:
        return (1,)
    if d == 1:
        return (0, 1)
    prev2 = _chebyshev_coeffs(d - 2)
    prev1 = _chebyshev_coeffs(d - 1)
    out = [0] * (d + 1)
    for i, c in enumerate(prev1):
        out[i + 1] += 2 * c
    for i, c in enumerate(prev2):
        out[i] -= c
    return tuple(out)


def chebyshev_poly(d: int) -> SparsePolynomial:
    """Chebyshev polynomial of the first kind, T_d, univariate with int coefficients.

    Characterized by T_d(cos t) = cos(d t); leading coefficient 2^(d-1) for
    d >= 1 and the x^(d-1) coefficient is always zero.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    coeffs = _chebyshev_coeffs(d)
    return SparsePolynomial(1, {(e,): c for e, c in enumerate(coeffs) if c})


# -- text format --------------------------------------------------------------


class PolynomialParseError(ValueError):
    """Parse failure with the offset of the offending character."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<star>\*)|(?P<num>\d+)"
                    r"|(?P<slash>/)|(?P<var>x\d+)|(?P<caret>\^))")


def format_polynomial(p: SparsePolynomial) -> str:
    """Canonical text form; terms in degree-descending order."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for mono, coeff in p.sorted_terms():
        factors = []
        for i in reversed(range(p.num_vars)):
            e = mono[i]
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        if isinstance(coeff, (int, Fraction)):
            negative = coeff < 0
            mag = -coeff if negative else coeff
        else:
            negative = False  # domain elements print as-is
            mag = coeff
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


def parse_polynomial(text: str, num_vars: int | None = None) -> SparsePolynomial:
    """Parse the text format; num_vars defaults to 1 + the largest index seen."""
    terms: list[tuple[int, Fraction, dict[int, int]]] = []  # (sign, coeff, exps)
    pos = 0
    n = len(text)
    sign = 1
    seen_sign = False
    max_var = -1

    def error(msg: str) -> PolynomialParseError:
        return PolynomialParseError(f"{msg} at position {pos}", pos)

    while pos < n:
        m = _TOKEN.match(text, pos)
        if not m:
            break
        pos_before = pos
        pos = m.end()
        kind = m.lastgroup
        if kind == "sign":
            if seen_sign:
                raise error("two consecutive signs")
            sign = -1 if m.group("sign") == "-" else 1
            seen_sign = True
            continue
        if kind not in ("num", "var"):
            raise error(f"unexpected {text[pos_before:pos].strip()!r}")
        if terms and not seen_sign:
            raise error("missing operator between terms")
        # parse one term: factors joined by '*'
        coeff = Fraction(1)
        exps: dict[int, int] = {}
        while True:
            if kind == "num":
                value = Fraction(int(m.group("num")))
                save = pos
                mm = _TOKEN.match(text, pos)
                if mm and mm.lastgroup == "slash":
                    pos = mm.end()
                    mm = _TOKEN.match(text, pos)
                    if not mm or mm.lastgroup != "num":
                        raise error("malformed rational")
                    pos = mm.end()
                    den = int(mm.group("num"))
                    if den == 0:
                        raise error("zero denominator")
                    value /= den
                else:
                    pos = save
                coeff *= value
            else:  # var
                idx = int(m.group("var")[1:])
                exp = 1
                mm = _TOKEN.match(text, pos)
                if mm and mm.lastgroup == "caret":
                    pos = mm.end()
                    mm = _TOKEN.match(text, pos)
                    if not mm or mm.lastgroup != "num":
                        raise error("malformed exponent")
                    pos = mm.end()
                    exp = int(mm.group("num"))
                exps[idx] = exps.get(idx, 0) + exp
                max_var = max(max_var, idx)
            mm = _TOKEN.match(text, pos)
            if not (mm and mm.lastgroup == "star"):
                break
            pos = mm.end()
            m = _TOKEN.match(text, pos)
            if not m or m.lastgroup not in ("num", "var"):
                raise error("dangling '*'")
            pos = m.end()
            kind = m.lastgroup
        terms.append((sign, coeff, exps))
        sign = 1
        seen_sign = False

    if text[pos:].strip():
        raise error("unexpected character")
    if seen_sign:
        raise error("dangling sign")
    if not terms:
        raise PolynomialParseError("no terms found", 0)

    inferred = max(max_var + 1, 1)
    if num_vars is None:
        num_vars = inferred
    elif num_vars < inferred:
        raise ValueError(f"polynomial uses x{max_var} but num_vars={num_vars}")

    acc: dict[Monomial, object] = {}
    for sgn, coeff, exps in terms:
        value = sgn * coeff
        if value.denominator == 1:
            value = int(value)
        mono = Monomial(exps.get(i, 0) for i in range(num_vars))
        prev = acc.get(mono)
        prev = value if prev is None else prev + value
        if prev:
            acc[mono] = prev
        else:
            acc.pop(mono, None)
    return SparsePolynomial(num_vars, acc)
