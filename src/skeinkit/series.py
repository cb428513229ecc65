"""The series engine: the fused ring sum as a truncated power series, and
the coefficient windows read off it.

A ``Ring`` is what the engine reads of a diagram: its columns' twist
counts, closed cyclically, and its free loops.  Its colored bracket is the
ring sum over exit channels q of delta(2q) prod_columns sum_p c[q][p] *
twist_p^k, with c[q][p] = delta(2p) tet(n,n,2p,n,n,2q) / (theta_p
theta_q).  This module imports only ``algebra``: ``invariants`` routes a
diagram to its ring layout here, or to a state sum when it has none.

The series.  Put x = A^4.  Then [k]! = A^(-k(k-1)) F_k(x) with F_k(x) =
prod_{j<=k} (1 - x^j) / (1 - x), so a ratio of quantum factorials is +-A^s
prod_j (1 - x^j)^w_j, a power series over Z of which only the factors with
j < M matter modulo x^M.  Every channel weight is such a series and a
twist monomial is a digit shift, so ``_ring_digits`` takes the ring sum
modulo x^M above its nominal lowest exponent with no common denominator
and no division, and never computes a term that starts at digit M or
beyond.  The sum is evaluated as Python ints at X = 2^(8*width), masked
after every product (x^i -> X^i is a ring map from Z[x]/(x^M) onto
Z/X^M), with the width sized by the L1 bound sum_q |delta(2q)|_1
prod_columns sum_p |c[q][p]|_1 of the truncated series.  The loop factor
delta(n)^loops is (-1)^(n loops) A^(-2n loops) (1 + x + ... + x^n)^loops,
and 1 + x + ... + x^n is (1 - x^(n+1)) / (1 - x), so it is taken on the
decoded digits with the weights' own steps: per loop one ``_times`` and
one ``_over``, the two swapped to divide one delta(n) out.  Digit 0 is
the bracket's lowest coefficient: a ring of two or more columns is a
reduced alternating diagram, hence adequate, so its coefficient at the
nominal lowest exponent is +-1 (Armond, "The head and tail conjecture for
alternating knots", AGT 2013).  A sum whose digit 0 vanishes signals a
convention bug, and raises.

Two precisions.  A ``ColumnMemo`` holds one color at one precision, its
digits: its weights, the plan and the budget count are taken modulo
x^digits, and a column's packed sum modulo X^m at its exit's reach m.  A
sum takes its products at its own precision, at most the memo's: the
digits its window needs (``ring_window``), or the top of its span plus
two (``ring_polynomial``).  Its L1 bound, and so its digit width, is
summed over the exits that start below that precision, the only ones it
reads.  No coefficient of a product passes the product of its factors'
L1 norms, so that width holds each product before it is masked to the
sum's.

Zero columns and curls.  A column of 0 crossings is the identity on its
two cables, so by fusion sum_p c[q][p] is delta(n) at exit 0 and vanishes
at every other exit.  A ring with z zero columns keeps exit 0 alone,
drops those columns and gains z loops (``_fold``).  So a column closed
around its side, the ring of it and a zero column, is sum_p delta(2p) *
twist_p^k, and a zero column closed around its side is two loops.  A ring
of one column of k crossings is an unknot with k curls: it is one loop
times the curl monomial twist_0^k = ((-1)^n A^(n^2+2n))^k.  Summed as a
ring, its exits would cancel far into its nominal bottom.

The column memo.  A column's factor sum_p c[q][p] * twist_p^k depends only
on the color, the exit q and its count k, so a ``ColumnMemo`` keeps, for
one color at one precision, one ``ColumnRecord`` per column key (q, k,
m): its channels below the exit's reach m, their L1 bound and its packed
sums by width.  Each c[q][p], keyed by (q, p), is a ``SeriesRecord``: the
series, its L1 norm and its packings by width; the symmetric tet/theta
part of c[q][p] is kept once per pair (a, b).
``invariants.family_windows`` makes one memo per run of members at one
color, at the precision of the run's largest window, so a member rebuilds
only the columns whose count changed.  A full polynomial makes its own,
unless it runs inside ``shared_memos()``: there each color keeps the memo
of its longest span so far, which serves every shorter one, and a longer
span replaces it; ``skein verify`` keeps them for one suite.  No memo
outlives its family or its block, so nothing it holds goes stale and no
weight is held after it.

What is walked.  Exit q of a ring of r >= 2 nonzero columns starts r
q(q+1)/2 - q digits above exit 0, whatever the counts (``_plan``), so the
plan walks up from exit 0 to the first exit at the precision or beyond:
12 of 201 at color 200 for the published ``2,5,k`` row.  A column of k
>= 1 crossings starts lowest at channel n, and each channel below starts
strictly higher (``_nominal``), so the memo walks down from channel n to
the first channel that starts at the exit's reach m or beyond.  The
mirror the span reads, k <= -1, starts at channel 0 and exit n.

What is counted.  ``max_networks`` caps the column terms the series
builds: for each planned exit, the channels each column reaches there,
counted at the memo's precision before any weight is built, up to the
first exit that passes the cap.  The window of the published ``2,5,k``
row at color 200 counts 36 (12 exits of 3 columns, one channel each); a
full polynomial reaches about r (n+1)^2.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

from .algebra import (
    ExactDivisionError,
    LaurentPoly,
    QPoly,
    _pack,
    _unpack_digits,
    substitute_quarter,
)

__all__ = [
    "BudgetError",
    "CoeffList",
    "ColumnMemo",
    "Ring",
    "UNIT_NAMES",
    "WindowError",
    "ring_polynomial",
    "ring_window",
    "shared_memos",
    "window_from_bracket",
    "window_from_reduced",
]

UNIT_NAMES = {"A": "A-units", "q": "q-units"}


class BudgetError(ValueError):
    """A configured evaluation cap would be exceeded."""


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

    ``anchor`` is that degree, an int in the window's units: in A for a
    bracket, in q for a reduced polynomial, whose support always sits on
    the integer q-lattice.  It is metadata only: comparisons strip it,
    matching the paper's convention that windows match up to an overall
    degree shift.
    """

    coeffs: tuple[int, ...]
    units: str = "q"
    anchor: int = 0
    normalized: bool = False

    def __post_init__(self) -> None:
        coeffs = self.coeffs
        # a tuple of plain ints, what every window is built from, is kept
        if type(coeffs) is not tuple or any(type(c) is not int
                                            for c in coeffs):
            object.__setattr__(self, "coeffs", tuple(_as_int(c) for c in coeffs))
        object.__setattr__(self, "anchor", operator.index(self.anchor))
        if self.units not in UNIT_NAMES:
            raise WindowError(f"unknown grading units {self.units!r}")


def _window_length(count: int) -> None:
    # a window's length is an int, not a bool, and nonnegative
    if not isinstance(count, int) or isinstance(count, bool):
        raise TypeError(f"window length must be an int, got {count!r}")
    if count < 0:
        raise ValueError("window length must be nonnegative")


def window_from_bracket(poly: LaurentPoly, count: int) -> CoeffList:
    """The lowest ``count`` A-coefficients, zeros included, anchor recorded."""
    _window_length(count)
    if poly.is_zero():
        raise WindowError("zero polynomial has no coefficient window")
    m = poly.min_degree()
    return CoeffList(
        tuple(poly.coeff(m + i) for i in range(count)), "A", m
    )


def window_from_reduced(qp: QPoly, count: int) -> CoeffList:
    """The lowest ``count`` coefficients of a reduced polynomial, stepping
    by one along the integer q-lattice, anchor recorded."""
    _window_length(count)
    if qp.is_zero():
        raise WindowError("zero polynomial has no coefficient window")
    return CoeffList(tuple(qp.coeffs_from_bottom(count)), "q",
                     qp.min_degree())


@dataclass(frozen=True)
class Ring:
    """What the fused evaluator reads of a diagram: its twist columns,
    closed cyclically, and its free loops.

    ``counts`` lists the columns' crossings in ring order; the right cable
    of each column bends into the left cable of the next, and the last
    wraps around to the first.  A column of 0 crossings passes both
    strands straight through, so a column closed around its side is
    ``Ring((k, 0), loops)``.
    """

    counts: tuple[int, ...]
    loops: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if not self.counts:
            raise ValueError("a ring needs at least one column")
        if not all(isinstance(k, int) and not isinstance(k, bool)
                   for k in (*self.counts, self.loops)):
            raise TypeError("column twist counts and free loops must be ints")
        if min(self.counts) < 0:
            raise ValueError("column twist counts must be nonnegative")
        if self.loops < 0:
            raise ValueError("free loops must be nonnegative")


# -- series arithmetic modulo x^M ------------------------------------------------


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
    # c /= 1 - x^j, in place, modulo x^len(c): a running sum along each
    # residue class mod j that holds more than one digit
    for r in range(min(j, len(c) - j)):
        c[r::j] = itertools.accumulate(c[r::j])


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


def _tet_steps(n: int, a: int, b: int, u: int):
    # term u of the tetrahedral sum over term u - 1, as (1 - x^j) factors
    # up / down: [s+1][2n-s+1][a-u+1]^2 / ([u]^2 [u+b-a]^2), s = n+b+u
    return ((n + b + u + 1, n - b - u + 1, a - u + 1, a - u + 1),
            (u, u, u + b - a, u + b - a))


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
def _nominal(n: int, q: int, p: int) -> int:
    """The A-exponent the series of c[q][p] starts at.  Every weight is
    symmetric under A -> 1/A, so its top exponent is minus this.

    The A-shift of term u of the tetrahedral sum is the convex quadratic
    6u^2 + beta u + (its value at u = 0), with beta = 4b - 8a - 4n - 2 read
    off ``_tet_factorials``, so its least value over the terms is at an
    integer next to the vertex -beta/12, clamped to the term range: no
    term list is built.

    Adjacent channels differ by -4(p+1) <= _nominal(n, q, p+1) -
    _nominal(n, q, p) <= 4p, which lets ``ColumnMemo`` walk a column's
    channels outward from its lowest one.  Term u of channel p has the
    shift S(a, b, u) - 4p, with S = 2a^2 - 4ab + 4an + 2a + 2n + 6u^2 +
    (4b - 8a - 4n - 2)u over 0 <= u <= min(n - b, a), so the step is -4
    plus the change of the least S, which lies in [-4p, 4(p+1)]: compare
    each side's least term with a term of the other side.

    * p >= q raises b = p.  The range only shrinks, and at a fixed u, S
      moves by 4(u - a), in [-4p, 0].  Only u = n - b leaves the range;
      u - 1 at b + 1 lies 4(a + b - n + 1) <= 4(p + 1) above it.
    * p < q raises a = p.  The range only grows, and raising u with a
      moves S by 4(u - a), in [-4p, 0].  Where u + 1 leaves the range,
      u = n - b, and raising a alone moves S by 4(a + b - n + 1) <=
      4(p + 1); at u = 0 raising a alone moves S by 4(a - b + n + 1) > 0.
    """
    a, b = min(p, q), max(p, q)
    beta = 4 * b - 8 * a - 4 * n - 2
    top = min(n - b, a)
    u = min(max(-beta // 12, 0), top)
    v = min(u + 1, top)
    return (_fact_shift(*_tet_factorials(n, a, b, 0))
            + min(6 * u * u + beta * u, 6 * v * v + beta * v) - 4 * p)


def _symmetric(n: int, a: int, b: int, digits: int) -> list[int]:
    """tet(n,n,2a,n,n,2b) / (theta_a theta_b) modulo x^digits above its
    nominal lowest exponent, for a <= b: the first term is a ratio of
    factorials, and each next one the last times ``_tet_steps``."""
    terms = _tet_terms(n, a, b)
    low = min(s for _, s in terms)
    total = [0] * digits
    series = _ratio(*_tet_factorials(n, a, b, 0), digits)
    for u, (sign, shift) in enumerate(terms):
        if u:
            ups, downs = _tet_steps(n, a, b, u)
            for j in ups:
                _times(series, j)
            for j in downs:
                _over(series, j)
        off = _quarters(shift - low)
        if off < digits:
            op = operator.add if sign > 0 else operator.sub
            total[off:] = map(op, total[off:], series)
    return total


def _mask(t: int, digits: int, width: int) -> int:
    # the representative of t modulo X^digits nearest 0
    top = 1 << (8 * width * digits)
    half = top >> 1
    return ((t + half) & (top - 1)) - half


def _twist(n: int, p: int) -> tuple[int, int]:
    # (A-exponent, sign) of channel p's twist monomial twist_coeff(n, n, 2p)
    return 2 * (n - p) + n * n - 2 * p * p, -1 if (n - p) % 2 else 1


def _least(n: int, q: int, k: int) -> int:
    """The nominal lowest A-exponent of a column of k != 0 crossings on
    exit q: the least of sum_p c[q][p] * twist_p^k over its terms.

    Channel p's twist exponent falls by 4(p+1) per crossing from p to
    p+1, and ``_nominal`` rises by at most 4p, so for k >= 1 the column's
    exponent falls strictly with p and the least is at p = n; ``_nominal``
    falls by at most 4(p+1), so for k <= -1 it never falls with p and the
    least is at p = 0.
    """
    p = n if k > 0 else 0
    return _nominal(n, q, p) + _twist(n, p)[0] * k


# -- the column memo and the ring sum ---------------------------------------------


@dataclass(eq=False, slots=True)
class ColumnRecord:
    """A column on exit q below its reach m: its terms, each (digit offset,
    negated, channel p), then their L1 bound and packed sums by width."""

    q: int
    m: int
    terms: list[tuple[int, bool, int]]
    norm: int | None = None
    packs: dict[int, int] = field(default_factory=dict)


class SeriesRecord:
    """A weight c[q][p] modulo x^digits, its L1 norm and its packings by
    width (a run mostly keeps one width, so about one each)."""

    __slots__ = ("coeffs", "norm", "packs")

    def __init__(self, coeffs: list[int]) -> None:
        self.coeffs, self.norm, self.packs = coeffs, sum(map(abs, coeffs)), {}

    def pack(self, width: int) -> int:
        """The series at X = 2^(8*width), packed on first need."""
        packs = self.packs
        if width not in packs:
            packs[width] = _pack(dict(enumerate(self.coeffs)), 0, 1, width)
        return packs[width]


class ColumnMemo:
    """The column factors of ring sums at color ``n`` modulo x^digits,
    for one run of members at its one precision ``digits`` (what it
    holds, and under which keys, is in the module docstring)."""

    def __init__(self, n: int, digits: int) -> None:
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in (n, digits)):
            raise TypeError("color and precision must be ints, got "
                            f"{n!r} and {digits!r}")
        if n < 0:
            raise ValueError(f"color must be nonnegative, got {n}")
        if digits < 1:
            raise ValueError(f"precision must be positive, got {digits}")
        self.n = n
        self.digits = digits
        self._mus = [_twist(n, p) for p in range(n + 1)]
        self._columns: dict = {}
        self._symmetric: dict = {}
        self._channels: dict = {}

    def column(self, q: int, k: int, m: int) -> ColumnRecord:
        """The record of a column of k crossings on exit q below digit
        ``m``, made on first use.

        The walk starts at the lowest channel (see ``_least``) and moves
        away from it, and the offsets never fall along it, so it stops at
        the first channel that starts at digit ``m`` or beyond.  No weight
        is built.
        """
        record = self._columns.get((q, k, m))
        if record is None:
            n, least = self.n, _least(self.n, q, k)
            terms = []
            for p in range(n, -1, -1) if k > 0 else range(n + 1):
                e, s = self._mus[p]
                off = _quarters(_nominal(n, q, p) + e * k - least)
                if off >= m:
                    break
                terms.append((off, s < 0 and k % 2 == 1, p))
            record = self._columns[q, k, m] = ColumnRecord(q, m, terms)
        return record

    def bound(self, record: ColumnRecord) -> int:
        """The L1 bound of the record's terms, summed on first need."""
        if record.norm is None:
            record.norm = sum(self._channel(record.q, p).norm
                              for _, _, p in record.terms)
        return record.norm

    def pack(self, record: ColumnRecord, width: int) -> int:
        """The record's terms at X = 2^(8*width) modulo X^m, once per width."""
        packs = record.packs
        if width not in packs:
            digit, acc = 8 * width, 0
            for off, neg, p in record.terms:
                c = self._channel(record.q, p).pack(width) << (digit * off)
                acc = acc - c if neg else acc + c
            packs[width] = _mask(acc, record.m, width)
        return packs[width]

    def _channel(self, q: int, p: int) -> SeriesRecord:
        # c[q][p], built on first use
        if (q, p) not in self._channels:
            self._channels[q, p] = SeriesRecord(self.weight(q, p))
        return self._channels[q, p]

    def weight(self, q: int, p: int) -> list[int]:
        """c[q][p] = delta(2p) tet / (theta_p theta_q) modulo x^digits above
        ``_nominal(n, q, p)``.

        Only the tet/theta part is symmetric in p and q, so it is kept
        once per pair; delta(2p) belongs to the column channel p.
        """
        a, b = min(p, q), max(p, q)
        part = self._symmetric.get((a, b))
        if part is None:
            part = self._symmetric[a, b] = _symmetric(self.n, a, b,
                                                      self.digits)
        c = list(part)
        _times(c, 2 * p + 1)
        _over(c, 1)
        return c


def _fold(n: int, twists: Sequence[int], loops: int):
    """The exits, the columns and the loops the ring sum is taken over, and
    the curl monomial (A-exponent, sign) it is multiplied by: zero columns
    folded into loops, and a ring of one column into its curl times a loop
    (see the module docstring)."""
    if len(twists) == 1:
        (k,), (e, s) = twists, _twist(n, 0)
        return [0], [], loops + 1, (e * k, s if k % 2 else 1)
    if 0 in twists:
        return [0], [k for k in twists if k], loops + twists.count(0), (0, 1)
    return range(n + 1), twists, loops, (0, 1)


def _exit_low(n: int, q: int, columns: Sequence[int]) -> int:
    # the nominal lowest A-exponent of the ring sum's terms on exit q:
    # delta(2q) = A^(-4q) (1 + ... + x^2q)
    return -4 * q + sum(_least(n, q, k) for k in columns)


def _span(n: int, twists: Sequence[int], loops: int) -> tuple[int, int]:
    """The nominal lowest and highest A-exponents of the fused bracket times
    delta(n)^loops.  The bottom is at exit 0 (``_plan``).  The bracket at
    1/A is the mirror's, whose twists are negated, so the top is minus
    the mirror's bottom, at its exit n: a column of k <= -1 is least at
    channel 0, whose one tetrahedral term has ``_fact_shift`` (n+1)n -
    n(n-1), so ``_nominal(n, q, 0)`` = 2n and the exits fall as -4q.
    """
    exits, columns, loops, (curl, _) = _fold(n, twists, loops)
    low = curl + _exit_low(n, exits[0], columns)
    top = curl - _exit_low(n, exits[-1], [-k for k in columns])
    return low - 2 * n * loops, top + 2 * n * loops


def _plan(memo: ColumnMemo, exits, columns: Sequence[int], max_networks: int
          ) -> list[tuple[int, int, int, list[ColumnRecord]]]:
    """The exits that start below the memo's precision, each (q, at,
    length, records): exit q starts ``at`` digits above exit 0, its
    delta(2q) has ``length`` digits below the exit's reach m = digits -
    at, and ``records`` are its columns' below m.  Past ``max_networks``
    column terms planned, ``BudgetError`` is raised before any weight is
    built.

    Exit q of a ring of r >= 2 nonzero columns starts at(q) = r q(q+1)/2 -
    q, whatever the counts, and at(q+1) - at(q) = r(q+1) - 1 >= 1, so the
    walk stops at the first exit at or past the precision.  Every other
    shape has one exit (``_fold``).  Proof: a column of k >= 1 is least at
    channel n (``_least``), which has the one tetrahedral term u = 0 (0 <=
    u <= min(n - n, q)), with ``_fact_shift`` (n+q+1)(n+q) + (n-q)(n-q-1)
    - 2n(n-1) = 2q^2 + 2q + 2n; so ``_nominal(n, q, n)`` = 2q^2 + 2q - 2n,
    and with delta(2q)'s -4q exit q starts -4q + r (2q^2 + 2q) = 4 at(q)
    A-degrees above exit 0.  Term j of the ring's tail, a theta series
    (Armond-Dasbach), sits at the same r j(j+1)/2 - j.
    """
    r, plan, terms = len(columns), [], 0
    for q in exits:
        at = r * q * (q + 1) // 2 - q
        m = memo.digits - at
        if m <= 0:
            break
        records = [memo.column(q, k, m) for k in columns]
        plan.append((q, at, min(2 * q + 1, m), records))
        terms += sum(len(record.terms) for record in records)
        if terms > max_networks:
            raise BudgetError(
                f"at least {terms} fusion column terms exceed the "
                f"configured cap of {max_networks}"
            )
    return plan


def _ring_digits(memo: ColumnMemo, twists: Sequence[int], loops: int,
                 max_networks: int, need: int) -> tuple[int, list[int]]:
    """The fused bracket at the memo's color times delta(n)^loops (loops
    >= -1) modulo x^need above its nominal lowest A-exponent: that
    exponent, and its ``need`` digits.  Digit 0 is the bracket's lowest
    coefficient; ``ExactDivisionError`` is raised when it vanishes.

    ``need`` is at most the memo's precision (see "Two precisions" in the
    module docstring).
    """
    n = memo.n
    exits, columns, loops, (curl, sign) = _fold(n, twists, loops)
    # the exits that start below ``need``, the only ones the sum reads
    plan = [e for e in _plan(memo, exits, columns, max_networks)
            if e[1] < need]
    bound = sum(length * math.prod(map(memo.bound, records))
                for _, _, length, records in plan)
    width = bound.bit_length() // 8 + 1
    one, total = (1).to_bytes(width, "little"), 0  # delta(2q) is all ones
    for _, at, length, records in plan:
        cut = need - at  # the exit's reach at ``need``
        prod = int.from_bytes(one * min(length, cut), "little")
        for record in records:
            prod = _mask(prod * memo.pack(record, width), cut, width)
        total += prod << (8 * width * at)
    out = _unpack_digits(total, need, width)
    # times (1 + x + ... + x^n)^loops, each factor (1 - x^(n+1)) / (1 - x)
    up, down = (n + 1, 1) if loops >= 0 else (1, n + 1)
    for _ in range(abs(loops)):
        _times(out, up)
        _over(out, down)
    if not out[0]:
        raise ExactDivisionError(
            "fused bracket vanishes at its nominal lowest exponent; this "
            "signals a convention bug upstream: the ring sum of "
            f"{len(twists)} columns at color {n} has no digit 0"
        )
    if sign * (-1) ** (n * loops % 2) < 0:
        out = [-c for c in out]
    return _exit_low(n, exits[0], columns) + curl - 2 * n * loops, out


# the memos, by color, that full polynomials share inside ``shared_memos``
_SHARED: contextvars.ContextVar[dict[int, ColumnMemo] | None] = (
    contextvars.ContextVar("shared_memos", default=None))


@contextlib.contextmanager
def shared_memos():
    """Within the block, each color keeps the ``ColumnMemo`` of its full
    polynomial of longest span so far, which serves every shorter one,
    and a longer span replaces it; the memos are dropped when the block
    ends."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _ring_polynomial(n: int, twists: Sequence[int], loops: int, *,
                     max_networks: int = 100_000) -> LaurentPoly:
    """The fused bracket times delta(n)^loops (loops >= -1), whole.

    A polynomial is its own power series, so the ring sum taken to the
    top of its nominal span is exact.  The two digits past the top vanish
    for a Laurent polynomial; a nonzero one means a weight, or the loop
    division, left the ring of Laurent polynomials.
    """
    if n < 0:
        raise ValueError(f"color must be nonnegative, got {n}")
    low, top = _span(n, twists, loops)
    span = _quarters(top - low) + 1
    shared = _SHARED.get()
    memo = None if shared is None else shared.get(n)
    if memo is None or memo.digits < span + 2:
        memo = ColumnMemo(n, span + 2)
        if shared is not None:
            shared[n] = memo
    low, out = _ring_digits(memo, twists, loops, max_networks, span + 2)
    if any(out[span:]):
        raise ExactDivisionError(
            "fused bracket is not a Laurent polynomial; this signals a "
            f"convention bug upstream: the ring sum of {len(twists)} columns "
            f"at color {n} has a coefficient past the top of its span"
        )
    return LaurentPoly({low + 4 * i: c for i, c in enumerate(out) if c})


# -- entry points -------------------------------------------------------------------


def ring_polynomial(ring: Ring, n: int, *, reduced: bool = False,
                    max_networks: int = 100_000) -> LaurentPoly | QPoly:
    """The fused bracket of ``ring`` at color n, whole; with ``reduced``,
    its reduced polynomial of index n + 1, one delta(n) divided out of
    the ring sum's digits and the exponents read in q."""
    poly = _ring_polynomial(n, ring.counts, ring.loops - reduced,
                            max_networks=max_networks)
    return substitute_quarter(poly) if reduced else poly


def _window_digits(count: int, reduced: bool) -> int:
    # the digits of x = A^4 a window of ``count`` entries reads: one entry
    # per digit in q-units, four in A-units
    return max(1, -(-count // (1 if reduced else 4)))


def ring_window(ring: Ring, memo: ColumnMemo, count: int, *,
                reduced: bool = False,
                max_networks: int = 100_000) -> CoeffList:
    """The lowest ``count`` coefficients of the fused bracket of ``ring`` at
    the memo's color, in A-units; with ``reduced``, of its reduced
    polynomial, in q-units.

    The ring sum is taken at the precision ``count`` needs, which must
    not pass the memo's.  Its digit 0 is the bracket's lowest coefficient
    (see the module docstring), so the window is read off from there.
    """
    _window_length(count)
    need = _window_digits(count, reduced)
    if need > memo.digits:
        raise ValueError(f"a window of {count} needs {need} digits; the "
                         f"memo holds {memo.digits}")
    low, out = _ring_digits(memo, ring.counts, ring.loops - reduced,
                            max_networks, need)
    if reduced:
        # one residue class mod 4: substitute_quarter reads A^low as q^(low//4)
        return CoeffList(tuple(out[:count]), "q", low // 4)
    coeffs = (0 if i % 4 else out[i // 4] for i in range(count))
    return CoeffList(tuple(coeffs), "A", low)
