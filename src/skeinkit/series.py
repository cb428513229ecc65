"""Coefficient windows: the lowest coefficients of a colored bracket or of a
reduced polynomial.

A window is either read off a full polynomial (``window_from_bracket``,
``window_from_reduced``) or computed directly as a truncated power series
(``bracket_window``, ``reduced_window``), which never builds the rest of
the polynomial.

The series path.  Put x = A^4.  Then [k]! = A^(-k(k-1)) F_k(x) with
F_k(x) = prod_{j<=k} (1 - x^j) / (1 - x) and F_k(0) = 1, so a ratio of
quantum factorials is +-A^s times prod_j (1 - x^j)^w_j for its net
exponent vector w, a power series over Z.  Modulo x^M only the factors
with j < M matter, so a ratio costs O(M) vector steps at any color, and
factors that cancel are never multiplied in.  Loop values, theta,
every term of the tetrahedral sum and so every channel weight c[q][p] of
``invariants.colored_bracket_fused`` is such a series, and the ring sum

    sum_q delta(2q) prod_columns sum_p c[q][p] * twist_p^k

is a sum of shifted products of them: a twist monomial is a digit shift,
and a term that starts at or beyond digit M is never computed.  Modulo
x^M the sum needs no common denominator and no division, and dividing
by delta(n) is one multiplication by (-1)^n A^(2n) F_n / F_(n+1).

The ring sum is evaluated as Python ints at X = 2^(8*width): x^i -> X^i
is a ring map from Z[x]/(x^M) onto Z/X^M, so masking after every product
keeps the ints short, and the digits read back exactly as soon as every
coefficient of the result fits with a sign.  The width comes from the
L1 bound sum_q |delta(2q)|_1 prod_columns sum_p |c[q][p]|_1 over the
truncated series; truncation never raises an L1 norm.

The result is exact to M digits above its nominal lowest exponent.  When
the lowest z of those digits vanish and z + count > M, the sum is taken
again at M = z + count.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LaurentPoly, QPoly, _pack, _unpack, twist_coeff
from .diagram import LinkDiagram
from .invariants import (
    LayoutError,
    _fused_columns,
    reduced_jones,
    unreduced_colored_jones,
)

__all__ = [
    "CoeffList",
    "UNIT_NAMES",
    "WindowError",
    "bracket_window",
    "reduced_window",
    "window_from_bracket",
    "window_from_reduced",
]

# Digits taken beyond the largest window of a family: room for a bottom
# that cancels before ``_lowest_digits`` has to retry.
GUARD = 2

UNIT_NAMES = {"A": "A-units", "q": "q-units", "q/2": "half q-units"}


class WindowError(ValueError):
    """A coefficient window is empty, too short, or incomparable."""


def _as_int(c) -> int:
    i = int(c)
    if i != c:
        raise WindowError(f"non-integer coefficient {c!r} in window")
    return i


@dataclass(frozen=True)
class CoeffList:
    """A finite run of coefficients anchored at a recorded minimum degree.

    ``anchor`` is metadata only: comparisons strip it, matching the paper's
    convention that windows match up to an overall degree shift.
    """

    coeffs: tuple[int, ...]
    units: str = "q"
    anchor: Fraction = Fraction(0)
    normalized: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(_as_int(c) for c in self.coeffs))
        object.__setattr__(self, "anchor", Fraction(self.anchor))
        if self.units not in UNIT_NAMES:
            raise WindowError(f"unknown grading units {self.units!r}")

    def window(self) -> int:
        return len(self.coeffs)


def window_from_bracket(poly: LaurentPoly, count: int) -> CoeffList:
    """The lowest ``count`` A-coefficients, zeros included, anchor recorded."""
    if count < 0:
        raise ValueError("window length must be nonnegative")
    if poly.is_zero():
        raise WindowError("zero polynomial has no coefficient window")
    m = poly.min_degree()
    return CoeffList(
        tuple(poly.coeff(m + i) for i in range(count)), "A", Fraction(m)
    )


def window_from_reduced(qp: QPoly, count: int) -> CoeffList:
    """The lowest ``count`` coefficients along the reduced support lattice."""
    if count < 0:
        raise ValueError("window length must be nonnegative")
    if qp.is_zero():
        raise WindowError("zero polynomial has no coefficient window")
    den = 2 if qp.half_step else 1
    return CoeffList(
        tuple(qp.coeffs_from_bottom(count)),
        "q/2" if qp.half_step else "q",
        Fraction(qp.min_degree(), den),
    )


# -- truncated series: lists of M coefficients in x = A^4 ----------------------


def _quarters(e: int) -> int:
    # an exponent difference in digits of x = A^4
    d, rest = divmod(e, 4)
    if rest:
        raise ArithmeticError(
            "fused terms leave the lattice of A^4; this signals a convention "
            "bug upstream"
        )
    return d


def _times(c: list[int], j: int) -> None:
    # c *= 1 - x^j, in place, modulo x^len(c)
    if j < len(c):
        c[j:] = map(operator.sub, c[j:], c[:-j])


def _over(c: list[int], j: int) -> None:
    # c /= 1 - x^j, in place: times (1 + x^j)(1 + x^2j)(1 + x^4j)...
    while j < len(c):
        c[j:] = map(operator.add, c[j:], c[:-j])
        j *= 2


def _ratio(up, down, digits: int) -> list[int]:
    """prod F_k over ``up`` / prod F_k over ``down``, modulo x^digits.

    Built from the net exponent of each (1 - x^j), j < digits: F_k has
    (1 - x^j) once for every 1 <= j <= k, and (1 - x)^-k besides.
    """
    ends = [0] * max(digits, 1)  # ends[j]: net count of min(k, digits-1) = j
    for ks, sgn in ((up, 1), (down, -1)):
        for k in ks:
            if k:
                ends[min(k, digits - 1)] += sgn
    c = [1] + [0] * (digits - 1)
    reach = 0  # net count of factorials with k >= j
    for j in range(digits - 1, 0, -1):
        reach += ends[j]
        e = reach - (sum(up) - sum(down) if j == 1 else 0)
        for _ in range(e):
            _times(c, j)
        for _ in range(-e):
            _over(c, j)
    return c


def _fact_shift(up, down) -> int:
    # A-exponent of prod [k]! over ``up`` / prod [k]! over ``down``
    return sum(k * (k - 1) for k in down) - sum(k * (k - 1) for k in up)


def _tet_factorials(n: int, a: int, b: int, u: int):
    # tet(n,n,2a,n,n,2b) / (theta(n,n,2a) theta(n,n,2b)), term s = n+b+u
    # of the tetrahedral sum, as factorials up / down (a <= b)
    up = (n - a, a, a, n - b, b, b, n + b + u + 1)
    down = (n + a + 1, n + b + 1, u, u, u + b - a, u + b - a, n - b - u,
            a - u, a - u)
    return up, down


@functools.cache
def _tet_terms(n: int, a: int, b: int) -> tuple[tuple[int, int], ...]:
    """(sign, A-shift) of each term of the symmetric channel weight
    tet(n,n,2a,n,n,2b) / (theta_a theta_b), for a <= b."""
    # (-1)^(a+b) from the thetas and (-1)^s from the term s = n+b+u
    return tuple(
        ((-1) ** (n + a + u), _fact_shift(*_tet_factorials(n, a, b, u)))
        for u in range(min(n - b, a) + 1)
    )


@functools.cache
def _nominal(n: int, q: int | None, p: int) -> int:
    """The A-exponent the series of c[q][p] starts at; q None stands for
    the weight delta(2p) of a region closed around the side."""
    if q is None:
        return -4 * p
    return min(s for _, s in _tet_terms(n, min(p, q), max(p, q))) - 4 * p


@functools.cache
def _symmetric(n: int, a: int, b: int, digits: int) -> list[int]:
    """tet(n,n,2a,n,n,2b) / (theta_a theta_b) modulo x^digits above its
    nominal lowest exponent, for a <= b.

    The first term is a ratio of factorials; each next one is the last
    times [s+1][2n-s+1][a-u+1]^2 / ([u]^2 [u+b-a]^2), four (1 - x^j)
    over four.
    """
    terms = _tet_terms(n, a, b)
    low = min(s for _, s in terms)
    total = [0] * digits
    series = _ratio(*_tet_factorials(n, a, b, 0), digits)
    for u, (sign, shift) in enumerate(terms):
        if u:
            for j in (n + b + u + 1, n - b - u + 1, a - u + 1, a - u + 1):
                _times(series, j)
            for j in (u, u, u + b - a, u + b - a):
                _over(series, j)
        off = _quarters(shift - low)
        if off < digits:
            op = operator.add if sign > 0 else operator.sub
            total[off:] = map(op, total[off:], series)
    return total


@functools.cache
def _weight(n: int, q: int | None, p: int,
            digits: int) -> tuple[list[int], int]:
    """c[q][p] = delta(2p) tet / (theta_p theta_q) modulo x^digits above
    ``_nominal(n, q, p)``, with its L1 norm; q None gives delta(2p).

    Only the tet/theta part is symmetric in p and q; delta(2p) belongs
    to the column channel p.
    """
    if q is None:
        c = [1] * min(2 * p + 1, digits)
    else:
        c = list(_symmetric(n, min(p, q), max(p, q), digits))
        _times(c, 2 * p + 1)
        _over(c, 1)
    return c, sum(map(abs, c))


# -- the ring sum, as Python ints ----------------------------------------------


@functools.cache
def _packed_weight(n: int, q: int | None, p: int, digits: int,
                   width: int) -> int:
    # Members of one family mostly share their digit width, so each weight
    # is packed about once per family (the measured gain is in CHANGES.md).
    return _pack_series(_weight(n, q, p, digits)[0], width)


def _pack_series(c: list[int], width: int) -> int:
    # sum of c[i] * X^i at X = 2^(8*width)
    return _pack(dict(enumerate(c)), 0, 1, width)


def _ones(length: int, width: int) -> int:
    # 1 + X + ... + X^(length-1), a loop value delta(m) with length m + 1
    return int.from_bytes((1).to_bytes(width, "little") * length, "little")


def _mask(t: int, digits: int, width: int) -> int:
    # the representative of t modulo X^digits nearest 0
    top = 1 << (8 * width * digits)
    half = top >> 1
    return ((t + half) & (top - 1)) - half


def _ring_digits(n: int, style: str, twists, loops: int,
                 digits: int) -> tuple[int, dict[int, int]]:
    """The fused bracket times delta(n)^loops (loops >= -1) modulo x^digits
    above its nominal lowest A-exponent: that exponent, and the nonzero
    digits by position.

    Each exit channel q contributes delta(2q) times the product over
    columns of sum_p c[q][p] * twist_p^k; a column closed around the
    side ("trace") is the single exit sum_p delta(2p) * twist_p^k.
    """
    mus = [next(iter(twist_coeff(n, n, 2 * p).terms.items()))
           for p in range(n + 1)]
    # exit channel q: delta(2q) = A^(-4q) (1 + ... + x^2q) times, per
    # column, the (A-exponent, negated, channel) of each term
    exits = []
    for q in [None] if style == "trace" else range(n + 1):
        cols = [[(_nominal(n, q, p) + e * k, s < 0 and k % 2 == 1, p)
                 for p, (e, s) in enumerate(mus)] for k in twists]
        lead = 0 if q is None else q
        exits.append((q, 2 * lead + 1, -4 * lead, cols))
    lows = [lo + sum(min(t[0] for t in col) for col in cols)
            for _, _, lo, cols in exits]
    base = min(lows)
    # the terms that start below digit ``digits``, and the L1 bound of
    # their sum
    plan, bound = [], 0
    for (q, length, _, cols), low in zip(exits, lows):
        at = _quarters(low - base)
        m = digits - at
        if m <= 0:
            continue
        length = min(length, m)
        norm, used = length, []
        for col in cols:
            least = min(t[0] for t in col)
            terms = [(_quarters(e - least), neg, p) for e, neg, p in col]
            terms = [t for t in terms if t[0] < m]
            used.append(terms)
            norm *= sum(_weight(n, q, p, digits)[1] for _, _, p in terms)
        plan.append((q, at, m, length, used))
        bound += norm
    bound *= _loop_norm(n, loops, digits)
    width = bound.bit_length() // 8 + 1
    digit = 8 * width
    total = 0
    for q, at, m, length, used in plan:
        prod = _ones(length, width)
        for terms in used:
            acc = 0
            for off, neg, p in terms:
                c = _packed_weight(n, q, p, digits, width) << (digit * off)
                acc = acc - c if neg else acc + c
            prod = _mask(prod * acc, m, width)
        total += prod << (digit * at)
    total = _loop_power(_mask(total, digits, width), n, loops, digits, width)
    out = _unpack(total, 0, 1, width) if total else {}
    if n * loops % 2:
        out = {i: -c for i, c in out.items()}
    return base - 2 * n * loops, out


def _loop_norm(n: int, loops: int, digits: int) -> int:
    # |(1 + x + ... + x^n)^loops|_1 modulo x^digits, or a bound for it
    if loops >= 0:
        return (n + 1) ** loops
    # (1 - x) / (1 - x^(n+1)): two terms per n+1 digits
    return 2 * (-(-digits // (n + 1)))


def _loop_power(t: int, n: int, loops: int, digits: int, width: int) -> int:
    # t * (1 + x + ... + x^n)^loops modulo x^digits, packed (loops >= -1)
    digit = 8 * width
    for _ in range(loops):
        t = _mask(t * _ones(min(n + 1, digits), width), digits, width)
    if loops < 0:
        # times (1 - x), then over (1 - x^(n+1)) as in ``_over``
        t = _mask(t - (t << digit), digits, width)
        j = n + 1
        while j < digits:
            t = _mask(t + (t << (digit * j)), digits, width)
            j *= 2
    return t


def _lowest_digits(n: int, style: str, twists, loops: int, need: int,
                   digits: int) -> tuple[int, list[int]]:
    """The lowest A-exponent of the fused bracket times delta(n)^loops and
    its ``need`` >= 1 coefficients from there, in steps of A^4.

    A sum whose lowest z digits vanish is taken again with z + need
    digits.  The bracket of a link diagram is never 0 (at A = -1 it is
    +-(n+1)^c for c components), so some digit is nonzero at a large
    enough precision.
    """
    while True:
        low, out = _ring_digits(n, style, twists, loops, digits)
        if out:
            z = min(out)
            if z + need <= digits:
                return low + 4 * z, [out.get(z + i, 0) for i in range(need)]
            digits = z + need
        else:
            digits *= 2


def _ring(diagram: LinkDiagram, n: int,
          max_networks: int) -> tuple[str, list[int]] | None:
    """The ring layout's style and column twists under the fusion budget,
    or None for a diagram the full path takes through its state sums."""
    if diagram.crossing_count == 0:
        return None
    try:
        return _fused_columns(diagram, n, max_networks)
    except LayoutError:
        return None


def bracket_window(diagram: LinkDiagram, n: int, count: int, *,
                   family_count: int = 0,
                   max_networks: int = 100_000) -> CoeffList:
    """``window_from_bracket(unreduced_colored_jones(diagram, n).value,
    count)``, computed as a truncated series.

    ``family_count`` is the largest window, in A-units, of the family the
    diagram belongs to: the series is taken at the precision that window
    needs, so a family shares one and its per-color weights are built
    once.  A diagram with no ring layout takes the window of its state
    sum.  The fusion budget is the full path's.
    """
    if n < 1:
        raise ValueError(f"cable color must be >= 1, got {n}")
    if count < 0:
        raise ValueError("window length must be nonnegative")
    ring = _ring(diagram, n, max_networks)
    if ring is None:
        value = unreduced_colored_jones(diagram, n,
                                        max_networks=max_networks).value
        return window_from_bracket(value, count)
    need = max(1, -(-count // 4))
    low, xs = _lowest_digits(n, *ring, diagram.free_loops, need,
                             max(need, -(-family_count // 4)) + GUARD)
    coeffs = (0 if i % 4 else xs[i // 4] for i in range(count))
    return CoeffList(tuple(coeffs), "A", Fraction(low))


def reduced_window(diagram: LinkDiagram, N: int, count: int, *,
                   family_count: int = 0,
                   max_networks: int = 100_000) -> CoeffList:
    """``window_from_reduced(reduced_jones(diagram, N), count)``, computed
    as a truncated series; ``family_count`` as in ``bracket_window``, in
    the window's own q-units.
    """
    if N < 2:
        raise ValueError(f"reduced polynomials start at index 2, got {N}")
    if count < 0:
        raise ValueError("window length must be nonnegative")
    n = N - 1
    ring = _ring(diagram, n, max_networks)
    if ring is None:
        value = reduced_jones(diagram, N, max_networks=max_networks)
        return window_from_reduced(value, count)
    need = max(1, count)
    low, xs = _lowest_digits(n, *ring, diagram.free_loops - 1, need,
                             max(need, family_count) + GUARD)
    # one residue class mod 4: substitute_quarter reads A^low as q^(low//4)
    return CoeffList(tuple(xs[:count]), "q", Fraction(low // 4))
