"""Exact Laurent-polynomial arithmetic in the skein variable A.

Everything downstream (tangle evaluation, bracket sums, stability
windows) runs on the two types defined here:

* ``LaurentPoly``: a Laurent polynomial in A, stored sparsely as
  {exponent: coefficient}.  Coefficients are Python ints throughout
  the fused evaluator; a large all-int product is one big-int
  multiplication by Kronecker substitution on the operands' exponent
  lattice (``_kronecker_mul``), a small one a dict loop.
  ``fractions.Fraction`` coefficients are exact too and always take the
  dict loop.
* ``RationalFn``: a quotient of two LaurentPolys, reduced by polynomial
  gcd.  The Temperley-Lieb networks that check the closed forms use it;
  only final results are polynomial again, and converting back asserts
  exact divisibility.

The closed forms (theta, tetrahedral coefficients, quantum factorials)
are computed on their cyclotomic factors: [k]! is a monomial times
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
from fractions import Fraction
from typing import Iterable, Mapping, Union

Coeff = Union[int, Fraction]


class ZeroPolynomialError(ArithmeticError):
    """Raised when a degree is requested of the zero polynomial."""


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial quotient has a nonzero remainder."""


class GradingError(ValueError):
    """Raised when exponents do not lie in a single residue class."""


class AdmissibilityError(ValueError):
    """Raised for a color triple that bounds no trivalent vertex."""


def _norm_coeff(c: Coeff) -> Coeff:
    if type(c) is int:
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _all_int(terms: Mapping[int, Coeff]) -> bool:
    return all(type(c) is int for c in terms.values())


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


def _kronecker_mul(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Product of two integer term dicts by one big-int multiplication.

    Both operands are read on their common exponent lattice
    (min + step*Z) as digits of 8*width bits, wide enough for every
    product coefficient and a sign, and multiplied as Python ints
    (Kronecker substitution).  Adding half a digit to every digit of
    the product makes each digit nonnegative, so the coefficients read
    back without borrows.
    """
    lo_a, lo_b = min(a), min(b)
    step = math.gcd(*(e - lo_a for e in a), *(e - lo_b for e in b)) or 1
    bound = (max(map(abs, a.values())) * max(map(abs, b.values()))
             * min(len(a), len(b)))
    width = bound.bit_length() // 8 + 1
    count = (max(a) - lo_a + max(b) - lo_b) // step + 1
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * count, "little")
    raw = (_pack(a, lo_a, step, width) * _pack(b, lo_b, step, width)
           + offset).to_bytes(width * count, "little")
    lo = lo_a + lo_b
    out: dict[int, int] = {}
    for i in range(count):
        c = int.from_bytes(raw[i * width:(i + 1) * width], "little") - half
        if c:
            out[lo + i * step] = c
    return out


class LaurentPoly:
    """Sparse Laurent polynomial in A over the rationals.

    Terms are held in ``self.terms``, a dict mapping integer exponent
    to a nonzero int or Fraction.  The zero polynomial has no terms.
    Instances are immutable by convention; all operators return new
    objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Coeff] | None = None):
        clean: dict[int, Coeff] = {}
        if terms:
            for e, c in terms.items():
                c = _norm_coeff(c)
                if c:
                    clean[int(e)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: Coeff = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, Coeff]]) -> "LaurentPoly":
        acc: dict[int, Coeff] = {}
        for e, c in pairs:
            acc[e] = acc.get(e, 0) + c
        return cls(acc)

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

    def coeff(self, exp: int) -> Coeff:
        return self.terms.get(exp, 0)

    def support_residues(self) -> set[int]:
        """Residues mod 4 of all exponents in the support."""
        return {e % 4 for e in self.terms}

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
        if _all_int(acc):
            out.terms = acc
        else:
            out.terms = {e: _norm_coeff(c) for e, c in acc.items()}
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
        ints = _all_int(a) and _all_int(b)
        if ints and _kronecker_pays(len(a), len(b)):
            out.terms = _kronecker_mul(a, b)
            return out
        acc: dict[int, Coeff] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        out.terms = acc if ints else {e: _norm_coeff(c) for e, c in acc.items()}
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

    def scaled(self, c: Coeff) -> "LaurentPoly":
        if not c:
            return LaurentPoly()
        out = LaurentPoly.__new__(LaurentPoly)
        if type(c) is int and _all_int(self.terms):
            out.terms = {e: v * c for e, v in self.terms.items()}
        else:
            out.terms = {e: _norm_coeff(v * c) for e, v in self.terms.items()}
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
    if isinstance(x, (int, Fraction)):
        return LaurentPoly({0: x}) if x else LaurentPoly()
    return NotImplemented


A = LaurentPoly.monomial(1)
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()

#: loop value, the bracket of a disjoint unknot
DELTA = LaurentPoly({2: -1, -2: -1})


def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact quotient f / g of Laurent polynomials.

    Division proceeds from the lowest exponent upward, subtracting
    each quotient term's multiple of g from one working remainder in
    place.  Raises ``ExactDivisionError`` if g is zero or the
    remainder is nonzero.
    """
    if not isinstance(f, LaurentPoly) or not isinstance(g, LaurentPoly):
        raise TypeError("exact_div expects two LaurentPoly arguments")
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
    quo: dict[int, Coeff] = {}
    for e in range(f_min, f_max + 1, step or 1):
        c = rem.pop(e, 0)
        if not c:
            continue
        t = e - g_min
        if t > max_t:
            raise ExactDivisionError(f"{f} is not divisible by {g}")
        if g_lead == 1:
            q = c
        elif g_lead == -1:
            q = -c
        else:
            q = _norm_coeff(Fraction(c) / Fraction(g_lead))
        quo[t] = q
        for off, gc in g_rest:
            k = e + off
            v = rem.get(k, 0) - q * gc
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return LaurentPoly(quo)


def _poly_content_free(f: LaurentPoly) -> LaurentPoly:
    """Shift so the minimum degree is 0 and the trailing coeff is 1."""
    if f.is_zero():
        return f
    m = f.min_degree()
    lead = f.terms[m]
    return f.shifted(-m).scaled(Fraction(1, 1) / Fraction(lead))


def _int_primitive(f: LaurentPoly) -> LaurentPoly:
    """Shift to min degree 0, clear denominators, strip integer content."""
    if f.is_zero():
        return f
    f = f.shifted(-f.min_degree())
    lcm = 1
    for c in f.terms.values():
        if isinstance(c, Fraction):
            d = c.denominator
            lcm = lcm * d // math.gcd(lcm, d)
    if lcm != 1:
        f = f.scaled(lcm)
    content = 0
    for c in f.terms.values():
        content = math.gcd(content, int(c))
    if f.terms[0] < 0:
        content = -content
    if content not in (0, 1):
        f = f.scaled(Fraction(1, content))
    return f


def _pseudo_mod(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    # integer pseudo-remainder of f by g, dividing from the top down
    g_max = g.max_degree()
    g_lead = g.terms[g_max]
    rem = f
    while rem.terms and rem.max_degree() >= g_max:
        t = rem.max_degree() - g_max
        c = rem.terms[rem.max_degree()]
        rem = rem.scaled(g_lead) - g.shifted(t).scaled(c)
    return rem


def poly_gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Gcd of two Laurent polynomials, trailing coefficient 1.

    Primitive pseudo-remainder sequence over the integers; the unit
    ambiguity (monomial times rational) is fixed by shifting the
    minimum degree to 0 and normalizing the trailing coefficient.
    """
    a, b = _int_primitive(f), _int_primitive(g)
    while not b.is_zero():
        a, b = b, _int_primitive(_pseudo_mod(a, b))
    if a.is_zero():
        return ONE
    lead = a.terms[0]
    return a if lead == 1 else a.scaled(Fraction(1, lead))


class RationalFn:
    """Quotient of Laurent polynomials, normalized lazily.

    On construction only the cheap normalization runs: the monomial
    content is cancelled (both parts are shifted so their minimum
    degree sits at 0, jointly) and the denominator is rescaled to have
    trailing coefficient 1.  A full gcd reduction happens on demand in
    ``reduce`` and automatically when denominators grow past a small
    span threshold.  Equality is decided by cross multiplication, so
    unreduced representatives still compare correctly.
    """

    __slots__ = ("num", "den")
    _REDUCE_SPAN = 48

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = ONE if den is None else _as_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RationalFn parts must be LaurentPoly or scalar")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        shift = min(num.min_degree(), den.min_degree())
        if shift:
            num, den = num.shifted(-shift), den.shifted(-shift)
        lead = den.terms[den.min_degree()]
        if lead != 1:
            inv = Fraction(1, 1) / Fraction(lead)
            num, den = num.scaled(inv), den.scaled(inv)
        self.num, self.den = num, den

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "RationalFn":
        out = cls.__new__(cls)
        out.num, out.den = p, ONE
        return out

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_one()

    def min_degree(self) -> int:
        """Order of vanishing at A = 0 (negative for poles)."""
        if self.num.is_zero():
            raise ZeroPolynomialError("zero rational function has no degree")
        return self.num.min_degree() - self.den.min_degree()

    def to_poly(self) -> LaurentPoly:
        """Exact conversion back to a polynomial.

        Raises ``ExactDivisionError`` if the function is not actually
        polynomial, which downstream code treats as a convention bug.
        """
        if self.den.is_one():
            return self.num
        return exact_div(self.num, self.den)

    def reduce(self) -> "RationalFn":
        """Divide out the full polynomial gcd."""
        if self.den.is_one() or self.num.is_zero():
            return self
        try:
            return RationalFn.from_poly(exact_div(self.num, self.den))
        except ExactDivisionError:
            pass
        g = poly_gcd(self.num, self.den)
        if g.is_one():
            return self
        return RationalFn(exact_div(self.num, g), exact_div(self.den, g))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RationalFn.from_poly(self.num + other.num)
        if self.den == other.den:
            out = RationalFn(self.num + other.num, self.den)
        else:
            out = RationalFn(
                self.num * other.den + other.num * self.den, self.den * other.den
            )
        return out._maybe_reduce()

    __radd__ = __add__

    def __neg__(self):
        out = RationalFn.__new__(RationalFn)
        out.num, out.den = -self.num, self.den
        return out

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
        if self.den.is_one() and other.den.is_one():
            return RationalFn.from_poly(self.num * other.num)
        # cross cancellations show up constantly in weight chains
        if self.num == other.den:
            return RationalFn(other.num, self.den)._maybe_reduce()
        if other.num == self.den:
            return RationalFn(self.num, other.den)._maybe_reduce()
        out = RationalFn(self.num * other.num, self.den * other.den)
        return out._maybe_reduce()

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        out = RationalFn(self.num * other.den, self.den * other.num)
        return out._maybe_reduce()

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

    def _maybe_reduce(self) -> "RationalFn":
        if self.den.is_one():
            return self
        span = self.den.max_degree() - self.den.min_degree()
        return self.reduce() if span > self._REDUCE_SPAN else self

    def mirror(self) -> "RationalFn":
        return RationalFn(self.num.mirror(), self.den.mirror())

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        r = self.reduce()
        return hash((r.num, r.den))

    def __bool__(self):
        return not self.num.is_zero()

    def __repr__(self):
        if self.den.is_one():
            return f"RationalFn({self.num})"
        return f"RationalFn(({self.num}) / ({self.den}))"


def _as_ratfn(x) -> "RationalFn":
    if isinstance(x, RationalFn):
        return x
    if isinstance(x, LaurentPoly):
        return RationalFn.from_poly(x)
    if isinstance(x, (int, Fraction)):
        return RationalFn.from_poly(_as_poly(x))
    return NotImplemented


RF_ONE = RationalFn.from_poly(ONE)
RF_ZERO = RationalFn.from_poly(ZERO)


class QPoly:
    """Laurent polynomial in q with integer exponent lattice.

    Produced by ``substitute_quarter``: exponents of the source
    polynomial in A are divided by 4 after factoring out a residue.
    ``residue_quarters`` records the factored-out power of q^(1/4)
    (0..3); ``half_step`` marks the coarser case where exponents only
    agreed mod 2 and the lattice is (1/2)Z instead of Z.
    """

    __slots__ = ("terms", "residue_quarters", "half_step")

    def __init__(self, terms: Mapping[int, Coeff], residue_quarters: int = 0,
                 half_step: bool = False):
        self.terms = {int(e): _norm_coeff(c) for e, c in terms.items() if c}
        self.residue_quarters = residue_quarters % 4
        self.half_step = bool(half_step)

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

    def coeff(self, exp: int) -> Coeff:
        return self.terms.get(exp, 0)

    def coeffs_from_bottom(self, count: int) -> list[Coeff]:
        """The lowest ``count`` coefficients, consecutive in the lattice.

        Missing exponents contribute explicit zeros.
        """
        m = self.min_degree()
        return [self.terms.get(m + j, 0) for j in range(count)]

    def __eq__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return (self.terms == other.terms
                and self.residue_quarters == other.residue_quarters
                and self.half_step == other.half_step)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.residue_quarters,
                     self.half_step))

    def __repr__(self):
        unit = "q^(1/2)-lattice" if self.half_step else "q-lattice"
        body = " ".join(f"{c}:q^{e}" for e, c in sorted(self.terms.items()))
        res = f" * q^({self.residue_quarters}/4)" if self.residue_quarters else ""
        return f"QPoly[{unit}]({body or '0'}{res})"


def substitute_quarter(f: LaurentPoly) -> QPoly:
    """Substitute A = q^(1/4), factoring the exponent residue out front.

    The support of a bracket-style polynomial sits in one residue class
    mod 4, so exponents become integers in q after pulling out
    q^(r/4).  If the support only fits one class mod 2, the result is
    flagged ``half_step``: the lattice is (1/2)Z, and a stored exponent
    h stands for q^(h/2).  Mixed residues mod 2 raise ``GradingError``.
    """
    if f.is_zero():
        return QPoly({}, 0, False)
    residues = f.support_residues()
    if len(residues) == 1:
        r = residues.pop()
        return QPoly({(e - r) // 4: c for e, c in f.terms.items()}, r, False)
    residues2 = {e % 2 for e in f.terms}
    if len(residues2) == 1:
        r = residues2.pop()
        # exponents live on r + 2Z: factor q^(r/4), lattice steps of 1/2.
        # Store in half units: stored exponent h means q^(h/2).
        return QPoly({(e - r) // 2: c for e, c in f.terms.items()}, r, True)
    raise GradingError(
        f"support exponents fall in mixed residue classes mod 2: "
        f"{sorted(f.terms)}"
    )


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


def coeff_window(f, count: int, step: int = 4) -> list[Coeff]:
    """The lowest ``count`` coefficients of f on an exponent lattice.

    The support must lie in a single residue class modulo ``step``;
    coefficients are read off at min, min+step, ..., with explicit
    zeros at absent exponents.  Raises ``GradingError`` if the support
    straddles residue classes and ``ZeroPolynomialError`` for the zero
    polynomial.
    """
    if isinstance(f, RationalFn):
        f = f.to_poly()
    if isinstance(f, QPoly):
        if step != 1:
            raise ValueError("q-lattice windows use step 1")
        return f.coeffs_from_bottom(count)
    if not isinstance(f, LaurentPoly):
        raise TypeError(f"coeff_window is not defined for {type(f).__name__}")
    if count < 0:
        raise ValueError(f"window length must be nonnegative, got {count}")
    m = f.min_degree()
    if step > 1:
        bad = {e for e in f.terms if (e - m) % step}
        if bad:
            raise GradingError(
                f"support is not contained in {m} + {step}Z: "
                f"offending exponents {sorted(bad)}"
            )
    return [f.terms.get(m + j * step, 0) for j in range(count)]


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
    come back as a reduced RationalFn.  Raises ``AdmissibilityError``
    for impossible triples.
    """
    sign, shift, vec = theta_factors(a, b, c)
    num, den = _expand(LaurentPoly.monomial(shift, sign), vec)
    return num if den.is_one() else RationalFn(num, den)


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


@functools.lru_cache(maxsize=None)
def quantum_fact(k: int) -> LaurentPoly:
    """Quantum factorial [k]! = [1][2]...[k], with [0]! = 1.  Cached.

    Each entry is a pure function of k, so threads racing on a cold
    cache at worst compute an entry twice; they never store a wrong one.
    """
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
    reduced RationalFn; inadmissible vertex triples raise
    ``AdmissibilityError``.
    """
    num, den = _expand(*cancel_factors(*tet_factors(a, b, e, c, d, f)))
    return RationalFn.from_poly(num) if den.is_one() else RationalFn(num, den)


# -- cyclotomic factorization of the closed forms ----------------------
#
# [k]! = A^(-k(k-1)) * prod_{d=2}^{k} Phi_d(A^4)^floor(k/d), with Phi_d
# the d-th cyclotomic polynomial.  So theta, tet and their quotients are
# a Laurent polynomial times prod_d Phi_d(A^4)^vec[d] for an exponent
# vector vec over d >= 2: products add vectors, a common denominator is
# their componentwise maximum, and reduction is trial division by the
# Phi_d(A^4) with negative exponent.  Every Phi_d(x) is irreducible over
# Q, and all the terms of a tet sum sit on one exponent class mod 4 (the
# A-shift of consecutive terms differs by 4 * (3s + 1 - sum of edges)),
# so no other common factor can remain.


@functools.lru_cache(maxsize=None)
def cyclotomic4(d: int) -> LaurentPoly:
    """Phi_d(A^4), the d-th cyclotomic polynomial in A^4.  Cached."""
    if d < 1:
        raise ValueError(f"cyclotomic4 needs d >= 1, got {d}")
    f = LaurentPoly({0: -1, 4 * d: 1})
    for e in range(1, d):
        if d % e == 0:
            f = exact_div(f, cyclotomic4(e))
    return f


def _factorials(up: Iterable[int], down: Iterable[int]) -> tuple[int, dict[int, int]]:
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


def _expand(num: LaurentPoly, vec: Mapping[int, int]) -> tuple[LaurentPoly, LaurentPoly]:
    """num * prod_d Phi_d(A^4)^vec[d] as a (numerator, denominator) pair."""
    up = {d: e for d, e in vec.items() if e > 0}
    down = {d: -e for d, e in vec.items() if e < 0}
    return num * phi_power(up), phi_power(down)


def cancel_factors(
    num: LaurentPoly, vec: Mapping[int, int]
) -> tuple[LaurentPoly, dict[int, int]]:
    """Divide the denominator factors of num * prod Phi_d(A^4)^vec[d]
    out of num, one exact trial division per factor and attempt."""
    out = dict(vec)
    for d, e in out.items():
        while e < 0:
            try:
                num = exact_div(num, cyclotomic4(d))
            except ExactDivisionError:
                break
            e += 1
        out[d] = e
    return num, out


def theta_factors(a: int, b: int, c: int) -> tuple[int, int, dict[int, int]]:
    """theta(a, b, c) as (sign, A-shift, vec): no polynomial part."""
    if not admissible(a, b, c):
        raise AdmissibilityError(f"({a}, {b}, {c}) is not an admissible triple")
    x = (a + b - c) // 2
    y = (a + c - b) // 2
    z = (b + c - a) // 2
    s = x + y + z
    shift, vec = _factorials((x, y, z, s + 1), (x + y, y + z, x + z))
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
    shift, vec = _factorials([g - h for g in quads for h in halves],
                             (a, b, c, d, e, f))
    terms = []
    for s in range(max(halves), min(quads) + 1):
        t_shift, t_vec = _factorials((s + 1,), [s - h for h in halves]
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
