"""Exact Laurent-polynomial arithmetic in the skein variable A.

Everything downstream (tangle evaluation, bracket sums, stability
windows) runs on the two types defined here:

* ``LaurentPoly``: a Laurent polynomial in A with integer
  coefficients, stored sparsely as {exponent: coefficient}.  A large
  product is one big-int multiplication by Kronecker substitution on
  the operands' exponent lattice (``_kronecker_mul``), a small one a
  dict loop.  Every value the calculators need lies in Z[A, A^(-1)],
  and a coefficient that is not an int is refused.
* ``RationalFn``: a LaurentPoly over a denominator kept as the exponent
  vector of a product of cyclotomic polynomials Phi_d(A^4), always in
  lowest terms.  The Temperley-Lieb networks that check the closed
  forms use it; only final results are polynomial again, and
  converting back asserts exact divisibility.

The closed forms (theta, tetrahedral coefficients, quantum factorials)
are computed on the same cyclotomic factors: [k]! is a monomial times
prod_d Phi_d(A^4)^floor(k/d), so quotients of them are exponent
vectors, and a sum of them needs only trial divisions by Phi_d(A^4),
never a gcd.

Conventions pinned here and relied on everywhere else:

* loop value  delta = -A^2 - A^(-2)
* quantum integer  [n+1] ~ Delta_n = (-1)^n * sum_{j=0}^{n} A^(2n-4j)
* q-Pochhammer in A^4:  qpoch4(n) = prod_{j=1}^{n} (1 - A^(4j))
* the substitution A = q^(1/4) maps exponent lattices 4Z+r to Z
  (plus a residue prefactor), see ``substitute_quarter``.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, Mapping


class ZeroPolynomialError(ArithmeticError):
    """Raised when a degree is requested of the zero polynomial."""


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial quotient has a nonzero remainder."""


class GradingError(ValueError):
    """Raised when exponents do not lie in a single residue class mod 4,
    which no planar diagram's bracket does (``substitute_quarter``)."""


class AdmissibilityError(ValueError):
    """Raised for a color triple that bounds no trivalent vertex."""


class CyclotomicError(ValueError):
    """Raised for a denominator that is not +-A^s times a product of Phi_d(A^4)."""


def _kronecker_pays(m: int, n: int) -> bool:
    """Whether an m-by-n-term integer product should use ``_kronecker_mul``.

    The schoolbook loop does m*n coefficient steps; Kronecker packing
    does a fixed amount of work per term of either operand, about six
    schoolbook steps each (the measured crossover is in CHANGES.md).
    """
    return m * n >= 6 * (m + n)


def _pack(terms: Mapping[int, int], lo: int, step: int, width: int) -> int:
    # sum of c * 2^(8*width*i) for the term at exponent lo + step*i
    count = (max(terms) - lo) // step + 1
    zero = bytes(width)
    pos, neg = [zero] * count, [zero] * count
    for e, c in terms.items():
        i = (e - lo) // step
        if c > 0:
            pos[i] = c.to_bytes(width, "little")
        else:
            neg[i] = (-c).to_bytes(width, "little")
    return (int.from_bytes(b"".join(pos), "little")
            - int.from_bytes(b"".join(neg), "little"))


def _unpack_digits(packed: int, count: int, width: int) -> list[int]:
    """The lowest ``count`` digits of a packed int, zeros included, read
    back as signed digits.

    Inverse of ``_pack`` for every coefficient c with |c| < 2^(8*width-1)
    and no term at digit ``count`` or beyond.  Adding half a digit to
    every digit makes each one nonnegative, so the coefficients read back
    without borrows.
    """
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * count, "little")
    raw = (packed + offset).to_bytes(width * count, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, width * count, width)]


def _unpack(packed: int, lo: int, step: int, width: int) -> dict[int, int]:
    """The term dict of a packed int (see ``_unpack_digits``)."""
    # a top digit k leaves |packed| > 2^(8*width*k - 1)
    count = packed.bit_length() // (8 * width) + 1
    digits = _unpack_digits(packed, count, width)
    return {lo + i * step: c for i, c in enumerate(digits) if c}


def _kronecker_mul(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Product of two integer term dicts by one big-int multiplication.

    Both operands are read on their common exponent lattice
    (min + step*Z) as digits of 8*width bits, wide enough for every
    product coefficient and a sign, multiplied as Python ints
    (Kronecker substitution) and read back by ``_unpack``.
    """
    lo_a, lo_b = min(a), min(b)
    step = math.gcd(*(e - lo_a for e in a), *(e - lo_b for e in b)) or 1
    bound = (max(map(abs, a.values())) * max(map(abs, b.values()))
             * min(len(a), len(b)))
    width = bound.bit_length() // 8 + 1
    return _unpack(_pack(a, lo_a, step, width) * _pack(b, lo_b, step, width),
                   lo_a + lo_b, step, width)


class LaurentPoly:
    """Sparse Laurent polynomial in A over the integers.

    Terms are held in ``self.terms``, a dict mapping integer exponent
    to a nonzero int; any other coefficient type raises ``TypeError``.
    The zero polynomial has no terms.  Instances are immutable by
    convention; all operators return new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                c = operator.index(c)
                if c:
                    clean[operator.index(e)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def min_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no minimum degree")
        return min(self.terms)

    def max_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no maximum degree")
        return max(self.terms)

    def coeff(self, exp: int) -> int:
        return self.terms.get(exp, 0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = acc
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return LaurentPoly()
        if len(a) > len(b):
            a, b = b, a
        out = LaurentPoly.__new__(LaurentPoly)
        if _kronecker_pays(len(a), len(b)):
            out.terms = _kronecker_mul(a, b)
            return out
        acc: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        out.terms = acc
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"polynomial power must be a nonnegative int, got {n!r}")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by A^k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e + k: c for e, c in self.terms.items()}
        return out

    def scaled(self, c: int) -> "LaurentPoly":
        c = operator.index(c)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e: v * c for e, v in self.terms.items()} if c else {}
        return out

    def mirror(self) -> "LaurentPoly":
        """Substitute A -> A^(-1)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {-e: c for e, c in self.terms.items()}
        return out

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, RationalFn):
            return other == self
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"LaurentPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            sign = "-" if (c < 0) else "+"
            mag = -c if c < 0 else c
            if e == 0:
                body = f"{mag}"
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}A^{e}" if e != 1 else f"{head}A"
            bits.append(f"{sign} {body}")
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _as_poly(x) -> "LaurentPoly":
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly({0: x}) if x else LaurentPoly()
    return NotImplemented


A = LaurentPoly.monomial(1)
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()

#: loop value, the bracket of a disjoint unknot
DELTA = LaurentPoly({2: -1, -2: -1})


def try_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly | None:
    """The quotient f / g in Z[A, A^(-1)], or None if g does not divide f.

    Division proceeds from the lowest exponent upward, subtracting
    each quotient term's multiple of g from one working remainder in
    place; it stops at the first quotient coefficient that is not an
    integer or lies beyond the degree the quotient can have.  A zero
    g raises ``ExactDivisionError``.
    """
    if not isinstance(f, LaurentPoly) or not isinstance(g, LaurentPoly):
        raise TypeError("exact division expects two LaurentPoly arguments")
    if g.is_zero():
        raise ExactDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly()
    g_min, g_max = g.min_degree(), g.max_degree()
    g_lead = g.terms[g_min]
    g_rest = [(e - g_min, c) for e, c in g.terms.items() if e != g_min]
    f_min, f_max = f.min_degree(), f.max_degree()
    max_t = f_max - g_max
    # every exponent the remainder can reach lies on f_min + step * Z
    step = math.gcd(*(e - f_min for e in f.terms), *(off for off, _ in g_rest))
    rem = dict(f.terms)
    quo: dict[int, int] = {}
    for e in range(f_min, f_max + 1, step or 1):
        c = rem.pop(e, 0)
        if not c:
            continue
        t = e - g_min
        if t > max_t:
            return None
        if g_lead == 1:
            q = c
        elif g_lead == -1:
            q = -c
        else:
            q, r = divmod(c, g_lead)
            if r:
                return None
        quo[t] = q
        for off, gc in g_rest:
            k = e + off
            v = rem.get(k, 0) - q * gc
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = quo
    return out


def _shape(f: LaurentPoly) -> str:
    if f.is_zero():
        return "0"
    return (f"a polynomial of degrees {f.min_degree()}..{f.max_degree()} "
            f"with {len(f.terms)} terms")


def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact quotient f / g of Laurent polynomials over the integers.

    ``try_div`` plus a raise: ``ExactDivisionError`` if g is zero or
    does not divide f in Z[A, A^(-1)].  The message names the degrees
    and term counts of both operands, not their coefficients.
    """
    q = try_div(f, g)
    if q is None:
        raise ExactDivisionError(f"{_shape(f)} is not divisible by {_shape(g)}")
    return q


def _cyclotomic_factors(f: LaurentPoly) -> tuple[int, int, dict[int, int]] | None:
    """f as (sign, shift, vec), f = sign * A^shift * prod_d Phi_d(A^4)^vec[d],
    or None if f is no such product.

    In x = A^4, f / (sign A^shift) = prod_n (1 - x^n)^b[n] as a power
    series, read off one n at a time; 1 - x^n = -prod_{d | n} Phi_d(x)
    turns the b[n] into vec.  Series to x^(size-1) find every Phi_d
    with d < size, and a product of degree deg f < size equal to f up
    to x^(size-1) is f.  size doubles up to 2 deg^2 + 2, past every d
    with phi(d) <= deg; every |b[n]| of a true product is at most deg.
    """
    low, high = f.min_degree(), f.max_degree()
    c0 = f.terms[low]
    if abs(c0) != 1 or abs(f.terms[high]) != 1 or any((e - low) % 4 for e in f.terms):
        return None
    deg = (high - low) // 4
    size = deg + 2
    while True:
        a = [0] * size
        for e, c in f.terms.items():
            a[(e - low) // 4] = c * c0
        vec: dict[int, int] = {}
        for n in range(1, size):
            b = -a[n]
            if abs(b) > deg:
                return None
            for _ in range(b):  # divide by 1 - x^n
                for i in range(n, size):
                    a[i] += a[i - n]
            for _ in range(-b):  # multiply by 1 - x^n
                for i in range(size - 1, n - 1, -1):
                    a[i] -= a[i - n]
            if b:
                for d in range(1, n + 1):
                    if n % d == 0:
                        vec[d] = vec.get(d, 0) + b
        vec = {d: e for d, e in vec.items() if e}
        if all(e > 0 for e in vec.values()) and deg == sum(
                e * (cyclotomic4(d).max_degree() // 4) for d, e in vec.items()):
            sign = -c0 if vec.get(1, 0) % 2 else c0
            return sign, low, vec
        if size > 2 * deg * deg + 1:
            return None
        size *= 2


def vec_sum(u: Mapping[int, int], v: Mapping[int, int]) -> dict[int, int]:
    """Componentwise sum: the exponent vector of a product."""
    out = dict(u)
    for d, e in v.items():
        out[d] = out.get(d, 0) + e
    return out


def common_den(
    u: Mapping[int, int], v: Mapping[int, int]
) -> tuple[dict[int, int], LaurentPoly, LaurentPoly]:
    """The least common multiple of two denominators, as the componentwise
    maximum of their vectors, with the factors that lift each to it."""
    den = {d: max(u.get(d, 0), v.get(d, 0)) for d in u.keys() | v.keys()}
    return (den, phi_power({d: e - u.get(d, 0) for d, e in den.items()}),
            phi_power({d: e - v.get(d, 0) for d, e in den.items()}))


class RationalFn:
    """A quotient num / prod_d Phi_d(A^4)^den_vec[d] in lowest terms.

    ``num`` is a LaurentPoly over the integers, which carries the sign
    and the A-shift of the denominator; ``den_vec`` maps each d to a
    positive exponent.  Every value is kept reduced: no Phi_d(A^4) of
    the denominator divides the numerator, which ``reduce`` ensures by
    trial division.  The Phi_d(A^4) are pairwise coprime, so this form
    is unique: equality compares parts, and a value that is a
    polynomial hashes as that LaurentPoly.  A denominator given as a
    LaurentPoly must be +-A^s times a product of Phi_d(A^4);
    ``CyclotomicError`` is raised otherwise.
    """

    __slots__ = ("num", "den_vec")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = ONE if den is None else _as_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RationalFn parts must be LaurentPoly or int")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        r = RationalFn._over(num, {}, den)
        self.num, self.den_vec = r.num, r.den_vec

    @classmethod
    def _raw(cls, num: LaurentPoly, den_vec: dict[int, int]) -> "RationalFn":
        out = cls.__new__(cls)
        out.num, out.den_vec = num, den_vec
        return out

    @classmethod
    def _over(cls, num: LaurentPoly, den_vec: Mapping[int, int],
              den: LaurentPoly) -> "RationalFn":
        # num / (prod Phi_d(A^4)^den_vec[d] * den), reduced
        factors = _cyclotomic_factors(den)
        if factors is None:
            raise CyclotomicError(
                f"denominator {_shape(den)} is not +-A^s times a product of "
                f"cyclotomic polynomials Phi_d(A^4)")
        sign, shift, vec = factors
        return cls._raw(num.shifted(-shift).scaled(sign),
                        vec_sum(den_vec, vec)).reduce()

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "RationalFn":
        return cls._raw(p, {})

    @classmethod
    def from_factors(cls, num: LaurentPoly, vec: Mapping[int, int]) -> "RationalFn":
        """num * prod_d Phi_d(A^4)^vec[d], exponents of either sign."""
        r = cls._raw(num, {d: -e for d, e in vec.items() if e < 0}).reduce()
        r.num = r.num * phi_power({d: e for d, e in vec.items() if e > 0})
        return r

    # -- queries ------------------------------------------------------

    @property
    def den(self) -> LaurentPoly:
        """The denominator prod_d Phi_d(A^4)^den_vec[d], expanded."""
        return phi_power(self.den_vec)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return not self.den_vec

    def min_degree(self) -> int:
        """Order of vanishing at A = 0 (negative for poles)."""
        if self.num.is_zero():
            raise ZeroPolynomialError("zero rational function has no degree")
        return self.num.min_degree()  # the denominator's lowest term is A^0

    def to_poly(self) -> LaurentPoly:
        """Exact conversion back to a polynomial.

        Raises ``ExactDivisionError`` if the function is not actually
        polynomial, which downstream code treats as a convention bug.
        """
        if self.den_vec:
            raise ExactDivisionError(
                f"not a Laurent polynomial: {_shape(self.num)} over "
                + " * ".join(f"Phi_{d}(A^4)^{e}" for d, e in sorted(self.den_vec.items())))
        return self.num

    def reduce(self) -> "RationalFn":
        """Trial-divide each Phi_d(A^4) of the denominator out of the
        numerator (``divide_out``).  Every result with a denominator that
        arithmetic or a constructor makes ends here."""
        if not self.den_vec:
            return self
        nums, left = divide_out({0: self.num}, self.den_vec)
        return RationalFn._raw(nums[0], left)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        u, v = self.den_vec, other.den_vec
        if u == v:
            return RationalFn._raw(self.num + other.num, u).reduce()
        vec, lift_u, lift_v = common_den(u, v)
        return RationalFn._raw(self.num * lift_u + other.num * lift_v, vec).reduce()

    __radd__ = __add__

    def __neg__(self):
        return RationalFn._raw(-self.num, self.den_vec)

    def __sub__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn._raw(self.num * other.num,
                               vec_sum(self.den_vec, other.den_vec)).reduce()

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn._over(self.num * phi_power(other.den_vec),
                                self.den_vec, other.num)

    def __rtruediv__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError(f"rational power must be an int, got {n!r}")
        if n < 0:
            return (RationalFn(ONE) / self) ** (-n)
        result = RationalFn.from_poly(ONE)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def mirror(self) -> "RationalFn":
        return RationalFn(self.num.mirror(), self.den.mirror())

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den_vec == other.den_vec and self.num == other.num

    def __hash__(self):
        if not self.den_vec:
            return hash(self.num)
        return hash((self.num, frozenset(self.den_vec.items())))

    def __bool__(self):
        return not self.num.is_zero()

    def __repr__(self):
        if not self.den_vec:
            return f"RationalFn({self.num})"
        return f"RationalFn(({self.num}) / ({self.den}))"


def _as_ratfn(x) -> "RationalFn":
    if isinstance(x, RationalFn):
        return x
    if isinstance(x, (LaurentPoly, int)):
        return RationalFn.from_poly(_as_poly(x))
    return NotImplemented


RF_ZERO = RationalFn.from_poly(ZERO)


class QPoly:
    """Laurent polynomial in q on the integer q-lattice.

    Produced by ``substitute_quarter``: exponents of the source polynomial
    in A are divided by 4 after factoring out a residue, whose power of
    q^(1/4) (0..3) ``residue_quarters`` records.
    """

    __slots__ = ("terms", "residue_quarters")

    def __init__(self, terms: Mapping[int, int], residue_quarters: int = 0):
        self.terms = {operator.index(e): operator.index(c)
                      for e, c in terms.items() if c}
        self.residue_quarters = residue_quarters % 4

    def is_zero(self) -> bool:
        return not self.terms

    def min_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no minimum degree")
        return min(self.terms)

    def max_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no maximum degree")
        return max(self.terms)

    def coeff(self, exp: int) -> int:
        return self.terms.get(exp, 0)

    def coeffs_from_bottom(self, count: int) -> list[int]:
        """The lowest ``count`` coefficients, consecutive in the lattice.

        Missing exponents contribute explicit zeros.
        """
        m = self.min_degree()
        return [self.terms.get(m + j, 0) for j in range(count)]

    def __eq__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return (self.terms == other.terms
                and self.residue_quarters == other.residue_quarters)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.residue_quarters))

    def __repr__(self):
        body = " ".join(f"{c}:q^{e}" for e, c in sorted(self.terms.items()))
        res = f" * q^({self.residue_quarters}/4)" if self.residue_quarters else ""
        return f"QPoly[q-lattice]({body or '0'}{res})"


def substitute_quarter(f: LaurentPoly) -> QPoly:
    """Substitute A = q^(1/4), factoring the exponent residue out front.

    The bracket of a planar diagram sits in one residue class mod 4
    (Kauffman, "State models and the Jones polynomial", Topology 1987):
    flipping one smoothing merges or splits a loop and moves the
    exponents by 0 or -4.  So its exponents become integers in q after
    pulling out q^(r/4).  Exponents in more than one class mod 4 raise
    ``GradingError``.
    """
    r = next(iter(f.terms), 0) % 4
    if any((e - r) % 4 for e in f.terms):
        raise GradingError(
            f"support exponents fall in more than one residue class mod 4: "
            f"{sorted(f.terms)}"
        )
    return QPoly({(e - r) // 4: c for e, c in f.terms.items()}, r)


def min_degree(f) -> int:
    """Minimum degree of a LaurentPoly, RationalFn, or QPoly."""
    if isinstance(f, (LaurentPoly, RationalFn, QPoly)):
        return f.min_degree()
    raise TypeError(f"min_degree is not defined for {type(f).__name__}")


def mirror(f):
    """Substitute A -> A^(-1) in a LaurentPoly or RationalFn."""
    if isinstance(f, (LaurentPoly, RationalFn)):
        return f.mirror()
    raise TypeError(f"mirror is not defined for {type(f).__name__}")


# -- closed forms ----------------------------------------------------


def qpoch4(n: int) -> LaurentPoly:
    """Finite q-Pochhammer in A^4: prod_{j=1}^{n} (1 - A^(4j))."""
    if n < 0:
        raise ValueError(f"qpoch4 needs n >= 0, got {n}")
    out = ONE
    for j in range(1, n + 1):
        out = out * LaurentPoly({0: 1, 4 * j: -1})
    return out


def delta(n: int) -> LaurentPoly:
    """Loop value of the n-strand projector closure.

    delta(n) = (-1)^n * (A^(2n) + A^(2n-4) + ... + A^(-2n)); in
    particular delta(0) = 1 and delta(1) is the loop value itself.
    """
    if n < 0:
        raise ValueError(f"delta needs n >= 0, got {n}")
    sign = -1 if n % 2 else 1
    return LaurentPoly({2 * n - 4 * j: sign for j in range(n + 1)})


def admissible(a: int, b: int, c: int) -> bool:
    """Whether (a, b, c) can bound a trivalent vertex.

    Needs a+b+c even and each color at most the sum of the other two.
    Degenerate triples like (n, n, 0) are allowed.
    """
    if min(a, b, c) < 0:
        return False
    if (a + b + c) % 2:
        return False
    return a <= b + c and b <= a + c and c <= a + b


def theta(a: int, b: int, c: int):
    """Value of the theta network with edge colors a, b, c.

    Two trivalent vertices joined by three multi-strand edges.  With
    x = (a+b-c)/2, y = (a+c-b)/2, z = (b+c-a)/2 the closed form is

        (-1)^(x+y+z) [x]! [y]! [z]! [x+y+z+1]! / ([x+y]! [y+z]! [x+z]!)

    in quantum factorials, computed on their cyclotomic factors (see
    ``theta_factors``).  The quotient is an honest Laurent polynomial
    whenever some internal color is even (in particular for every
    (n,n,2p) triple with p in {0, n} and all bubble cases) and is
    returned as a LaurentPoly then; triples with all internal colors
    odd, like (2,2,2), evaluate to genuinely rational functions and
    come back as a RationalFn over their Phi_d(A^4) factors.  Raises
    ``AdmissibilityError`` for impossible triples.
    """
    sign, shift, vec = theta_factors(a, b, c)
    value = RationalFn.from_factors(LaurentPoly.monomial(shift, sign), vec)
    return value.num if value.is_poly() else value


def fusion_coeff(n: int, i: int) -> LaurentPoly:
    """Weight of the i-th clasped smoothing of a crossing of n-cables.

    fusion_coeff(n, i) = A^(n^2 + 2 i^2 - 4 i n)
        * qpoch4(n) / (qpoch4(i) * qpoch4(n - i)),
    a Gaussian binomial times a framing monomial.
    """
    if not 0 <= i <= n:
        raise ValueError(f"fusion_coeff needs 0 <= i <= n, got i={i}, n={n}")
    binom = exact_div(qpoch4(n), qpoch4(i) * qpoch4(n - i))
    return binom.shifted(n * n + 2 * i * i - 4 * i * n)


def twist_coeff(a: int, b: int, c: int) -> LaurentPoly:
    """Eigenvalue of a single region crossing on the c-channel.

    For the clasped channel where two cables of colors a and b fuse
    into color c, one crossing of the region multiplies the channel by

        (-1)^((a+b-c)/2) * A^(a + b - c + (a^2 + b^2 - c^2)/2).

    This is a monomial, so repeated twisting is exponent arithmetic,
    never iterated multiplication.
    """
    if not admissible(a, b, c):
        raise AdmissibilityError(f"({a}, {b}, {c}) is not an admissible triple")
    k = (a + b - c) // 2
    sign = -1 if k % 2 else 1
    e2 = a * a + b * b - c * c
    if e2 % 2:
        raise AdmissibilityError(f"({a}, {b}, {c}) gives a fractional twist power")
    return LaurentPoly.monomial(a + b - c + e2 // 2, sign)


def quantum_int(k: int) -> LaurentPoly:
    """Balanced quantum integer [k] = A^(2(k-1)) + A^(2(k-1)-4) + ... + A^(-2(k-1)).

    [0] = 0, [1] = 1, [2] = A^2 + A^(-2), and delta(n) = (-1)^n [n+1].
    """
    if k < 0:
        raise ValueError(f"quantum_int needs k >= 0, got {k}")
    return LaurentPoly({2 * (k - 1) - 4 * j: 1 for j in range(k)})


@functools.cache
def quantum_fact(k: int) -> LaurentPoly:
    """Quantum factorial [k]! = [1][2]...[k], with [0]! = 1.  Cached."""
    if k < 0:
        raise ValueError(f"quantum_fact needs k >= 0, got {k}")
    return quantum_fact(k - 1) * quantum_int(k) if k else ONE


def tet(a: int, b: int, e: int, c: int, d: int, f: int) -> RationalFn:
    """Value of the tetrahedral network with vertex triples (a,b,e),
    (b,c,f), (c,d,e), (a,d,f); opposite edge pairs (a,c), (b,d), (e,f).

    With half-sums h_i over the four vertex triples and quadrilateral
    half-sums g_j in {(a+b+c+d)/2, (a+c+e+f)/2, (b+d+e+f)/2}:

        (prod_{i,j} [g_j - h_i]! / prod_edges [edge]!)
        * sum_{s = max h_i}^{min g_j} (-1)^s [s+1]!
              / (prod_i [s - h_i]! * prod_j [g_j - s]!)

    in quantum factorials, computed on their cyclotomic factors (see
    ``tet_factors``).  Invariant under the full symmetry group of the
    tetrahedron acting on edge labels.  The value is returned as a
    RationalFn in lowest terms; inadmissible vertex triples raise
    ``AdmissibilityError``.
    """
    return RationalFn.from_factors(*tet_factors(a, b, e, c, d, f))


# -- cyclotomic factorization of the closed forms ----------------------
#
# [k]! = A^(-k(k-1)) * prod_{d=2}^{k} Phi_d(A^4)^floor(k/d), with Phi_d
# the d-th cyclotomic polynomial.  So theta, tet and their quotients are
# a Laurent polynomial times prod_d Phi_d(A^4)^vec[d] for an exponent
# vector vec over d >= 2: products add vectors, a common denominator is
# their componentwise maximum, and reduction is trial division by the
# Phi_d(A^4) with negative exponent.  The Phi_d(A^4) for distinct d have
# no common root, so once no Phi_d(A^4) of the denominator divides the
# numerator, no common factor is left: the quotient is in lowest terms.


@functools.cache
def cyclotomic4(d: int) -> LaurentPoly:
    """Phi_d(A^4), the d-th cyclotomic polynomial in A^4.  Cached."""
    if d < 1:
        raise ValueError(f"cyclotomic4 needs d >= 1, got {d}")
    f = LaurentPoly({0: -1, 4 * d: 1})
    for e in range(1, d):
        if d % e == 0:
            f = exact_div(f, cyclotomic4(e))
    return f


def factorial_factors(up: Iterable[int], down: Iterable[int]) -> tuple[int, dict[int, int]]:
    """prod [k]! over ``up`` / prod [k]! over ``down`` as (A-shift, vec)."""
    shift = 0
    vec: dict[int, int] = {}
    for ks, sgn in ((up, 1), (down, -1)):
        for k in ks:
            shift -= sgn * k * (k - 1)
            for d in range(2, k + 1):
                vec[d] = vec.get(d, 0) + sgn * (k // d)
    return shift, vec


def phi_power(vec: Mapping[int, int]) -> LaurentPoly:
    """prod_d Phi_d(A^4)^vec[d] for a vector of nonnegative exponents."""
    out = ONE
    for d in sorted(vec):
        if vec[d]:
            out = out * cyclotomic4(d) ** vec[d]
    return out


def divide_out(
    nums: Mapping, den_vec: Mapping[int, int]
) -> tuple[dict, dict[int, int]]:
    """Cancel prod_d Phi_d(A^4)^den_vec[d] against the values of ``nums``.

    Each factor Phi_d(A^4) is divided out of every numerator as often
    as all of them allow, one ``try_div`` per numerator and attempt.
    Returns the quotients (keyed as ``nums``) and the exponents left,
    zeros dropped.
    """
    nums = dict(nums)
    left: dict[int, int] = {}
    for d, e in den_vec.items():
        phi = cyclotomic4(d)
        while e > 0:
            quos = {}
            for key, num in nums.items():
                q = try_div(num, phi)
                if q is None:
                    break
                quos[key] = q
            else:
                nums, e = quos, e - 1
                continue
            break
        if e:
            left[d] = e
    return nums, left


def theta_factors(a: int, b: int, c: int) -> tuple[int, int, dict[int, int]]:
    """theta(a, b, c) as (sign, A-shift, vec): no polynomial part."""
    if not admissible(a, b, c):
        raise AdmissibilityError(f"({a}, {b}, {c}) is not an admissible triple")
    x = (a + b - c) // 2
    y = (a + c - b) // 2
    z = (b + c - a) // 2
    s = x + y + z
    shift, vec = factorial_factors((x, y, z, s + 1), (x + y, y + z, x + z))
    return -1 if s % 2 else 1, shift, vec


def tet_factors(
    a: int, b: int, e: int, c: int, d: int, f: int
) -> tuple[LaurentPoly, dict[int, int]]:
    """tet(a, b, e, c, d, f) as (num, vec), not yet reduced.

    The sum over s is taken over the componentwise minimum of the
    terms' vectors, so every term's part of ``num`` is a product of
    factors that term has beyond that minimum.
    """
    tris = ((a, b, e), (b, c, f), (c, d, e), (a, d, f))
    for t in tris:
        if not admissible(*t):
            raise AdmissibilityError(f"vertex triple {t} is not admissible")
    halves = [sum(t) // 2 for t in tris]
    quads = ((a + b + c + d) // 2, (a + c + e + f) // 2, (b + d + e + f) // 2)
    shift, vec = factorial_factors([g - h for g in quads for h in halves],
                             (a, b, c, d, e, f))
    terms = []
    for s in range(max(halves), min(quads) + 1):
        t_shift, t_vec = factorial_factors((s + 1,), [s - h for h in halves]
                                     + [g - s for g in quads])
        terms.append((-1 if s % 2 else 1, t_shift, t_vec))
    low = {k: min(t_vec.get(k, 0) for _, _, t_vec in terms)
           for k in set().union(*(t_vec for _, _, t_vec in terms))}
    total = ZERO
    for sign, t_shift, t_vec in terms:
        extra = {k: t_vec.get(k, 0) - m for k, m in low.items()}
        total = total + phi_power(extra).shifted(t_shift).scaled(sign)
    for k, m in low.items():
        vec[k] = vec.get(k, 0) + m
    return total.shifted(shift), vec
