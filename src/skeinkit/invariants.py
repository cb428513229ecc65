"""Bracket evaluation pipelines.

Three independent routes to the same exact values:

* ``bracket_state_sum``: the classical bracket by a frontier sweep
  over smoothings, merging equal boundary connections (n = 1 only).
* ``colored_state_sum``: the n-colored state sum, expanding every
  cable crossing into weighted clasped turnbacks.  Above color 1 it
  contracts the sum at width 2n: one clasped step morphism per color,
  a power of it per column, and the ring closed as the Markov trace of
  the quarter-turned columns stacked in ring order.
* ``colored_bracket_fused``: the twist-region fast path, collapsing
  each column of the diagram's ``Ring`` (its closure, column twist
  counts and free loops, all the path reads of it) into a sum over
  colored channels whose k-fold twisting is plain exponent arithmetic.
  It is pure closed-form algebra (loop values, theta, tetrahedral
  coefficients and twist monomials), summed as one truncated power
  series in A^4: the windows of ``series`` take its lowest digits, the
  full polynomials take it to the top of its span.  The Temperley-Lieb
  networks here only check it.

On top of these sit reduced polynomial extraction, the closed-form
minimum-degree predictors, and ``channel_probe``, the value of the
network that replaces one region by a single colored channel.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

from .algebra import (
    DELTA,
    ONE,
    ZERO,
    ExactDivisionError,
    LaurentPoly,
    QPoly,
    RationalFn,
    _pack,
    _unpack,
    delta,
    exact_div,
    fusion_coeff,
    substitute_quarter,
)
from .diagram import (
    DiagramError,
    LinkDiagram,
    State,
    TwistRegion,
    _circle_counter,
    apply_state,
    is_adequate,
    is_alternating,
    is_minus_adequate,
)
from .planar import (
    TLMorphism,
    cabled_crossing,
    channel_element,
    close_ring,
    compose,
    jones_wenzl,
    tensor,
    turnback,
)


class BudgetError(ValueError):
    """A configured evaluation cap would be exceeded."""


class AdequacyError(ValueError):
    """The diagram fails the adequacy precondition of a degree formula."""


class LayoutError(DiagramError):
    """The diagram cannot be arranged in the column ring a pipeline needs."""


@dataclass(frozen=True)
class BracketValue:
    """An unreduced bracket evaluation.

    The value is exact in the framing the diagram was drawn with; no
    monomial correction is applied.  ``normalization`` records the
    scaling convention: the empty diagram evaluates to 1, so each
    free loop contributes one loop factor.
    """

    value: LaurentPoly
    normalization: str = "unreduced, empty=1"


# -- classical bracket: frontier sweep ----------------------------------------


def _sweep_order(diagram: LinkDiagram) -> list[int]:
    # Greedy order keeping the open boundary small: always take the
    # unprocessed crossing sharing the most arcs with the processed set.
    arcs_of = [set(x) for x in diagram.crossings]
    order: list[int] = []
    seen_arcs: set[int] = set()
    remaining = set(range(diagram.crossing_count))
    while remaining:
        best = max(
            sorted(remaining),
            key=lambda cid: len(arcs_of[cid] & seen_arcs),
        )
        order.append(best)
        seen_arcs |= arcs_of[best]
        remaining.discard(best)
    return order


def bracket_state_sum(
    diagram: LinkDiagram, *, max_crossings: int = 20
) -> BracketValue:
    """Kauffman bracket of the diagram, empty diagram = 1.

    Crossings are absorbed one at a time; the dynamic state is the
    pairing of dangling arc endpoints through the absorbed part, so
    smoothing prefixes that wire the boundary identically share one
    weight.  Closed circles picked up along the way contribute loop
    factors immediately.
    """
    c = diagram.crossing_count
    if c > max_crossings:
        raise BudgetError(
            f"{c} crossings exceed the configured cap of {max_crossings}"
        )
    # partner endpoint of every arc endpoint, through the arc itself
    ends: dict[int, list[tuple[int, int]]] = {}
    for cid, x in enumerate(diagram.crossings):
        for slot, a in enumerate(x):
            ends.setdefault(a, []).append((cid, slot))
    init: dict[tuple[int, int], tuple[int, int]] = {}
    for pair in ends.values():
        e0, e1 = pair
        init[e0] = e1
        init[e1] = e0

    def freeze(link: dict) -> tuple:
        return tuple(sorted((e, p) for e, p in link.items() if e < p))

    states: dict[tuple, LaurentPoly] = {freeze(init): ONE}
    for cid in _sweep_order(diagram):
        nxt: dict[tuple, LaurentPoly] = {}
        for key, weight in states.items():
            base = {e: p for e, p in key}
            base.update({p: e for e, p in key})
            for sign, joins in ((+1, ((0, 1), (2, 3))), (-1, ((0, 3), (1, 2)))):
                link = dict(base)
                circles = 0
                for i, j in joins:
                    ei, ej = (cid, i), (cid, j)
                    a = link.pop(ei)
                    b = link.pop(ej)
                    if a == ej:
                        circles += 1
                    else:
                        link[a] = b
                        link[b] = a
                w = weight.shifted(sign)
                if circles:
                    w = w * DELTA**circles
                k = freeze(link)
                acc = nxt.get(k)
                nxt[k] = w if acc is None else acc + w
        states = nxt
    total = states.get((), ZERO)
    if diagram.free_loops:
        total = total * DELTA**diagram.free_loops
    return BracketValue(total)


# -- ring layout detection -----------------------------------------------------


@dataclass(frozen=True)
class Ring:
    """What the fused evaluator reads of a diagram: how its twist columns
    close up, how many crossings each carries, and its free loops.

    ``style`` "ring" closes the columns cyclically, the right cable of
    each bending into the left cable of the next; "trace" closes its one
    column around the side.  ``counts`` lists the columns' crossings in
    ring order; a column of 0 crossings passes both strands straight
    through.
    """

    style: str
    counts: tuple[int, ...]
    loops: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if self.style not in ("ring", "trace"):
            raise ValueError(
                f"style must be 'ring' or 'trace', got {self.style!r}")
        if not self.counts:
            raise ValueError("a ring needs at least one column")
        if self.style == "trace" and len(self.counts) != 1:
            raise ValueError("a trace closes exactly one column")
        if min(self.counts) < 0:
            raise ValueError("column twist counts must be nonnegative")
        if self.loops < 0:
            raise ValueError("free loops must be nonnegative")


@dataclass(frozen=True)
class _Column:
    """One twist region with its boundary arcs, (bottom, top) per side."""

    region: TwistRegion
    left: tuple[int, int]
    right: tuple[int, int]


def _variants(col: _Column):
    bl, tl = col.left
    br, tr = col.right
    yield col
    yield _Column(col.region, (br, tr), (bl, tl))  # mirrored
    yield _Column(col.region, (tl, bl), (tr, br))  # upside down
    yield _Column(col.region, (tr, br), (tl, bl))  # both


def _ring_layout(diagram: LinkDiagram) -> tuple[Ring, tuple[int, ...]]:
    """The diagram as a ``Ring``, with the region id of each column.

    The first column is the lowest-labeled region that is one.  A
    diagram that does not lay out as a ring raises ``LayoutError``.
    """
    regions = sorted(diagram.twist_regions, key=lambda r: r.rid)
    if not regions:
        raise LayoutError("diagram has no labeled twist regions")
    covered: set[int] = set()
    for reg in regions:
        covered.update(reg.crossings)
    for cid in range(diagram.crossing_count):
        if cid not in covered:
            raise LayoutError(
                f"crossing {cid} is not in any labeled twist region"
            )
    cols = []
    for reg in regions:
        sides = diagram.sides[reg.rid]
        if sides is None:
            continue  # smoothed away into a free loop or a merged strand
        bl, tl, br, tr = sides
        cols.append(_Column(reg, (bl, tl), (br, tr)))
    if not cols:
        raise LayoutError("every labeled region was smoothed away")

    def layout(style: str, order) -> tuple[Ring, tuple[int, ...]]:
        return (Ring(style, tuple(c.region.count for c in order),
                     diagram.free_loops),
                tuple(c.region.rid for c in order))

    if len(cols) == 1:
        (bl, tl), (br, tr) = cols[0].left, cols[0].right
        if bl == br and tl == tr:
            return layout("ring", cols)
        if bl == tl and br == tr:
            return layout("trace", cols)
        raise LayoutError(
            f"region {cols[0].region.rid} does not close up on its own"
        )

    def extend(order: list[_Column]) -> bool:
        if len(order) == len(cols):
            return order[-1].right == order[0].left
        placed = {c.region.rid for c in order}
        want = order[-1].right
        for col in cols:
            if col.region.rid in placed:
                continue
            for cand in _variants(col):
                if cand.left == want:
                    order.append(cand)
                    if extend(order):
                        return True
                    order.pop()
        return False

    for start in _variants(cols[0]):
        order = [start]
        if extend(order):
            return layout("ring", order)
    raise LayoutError("labeled regions do not close into a single ring")


def _as_ring(shape: Ring | LinkDiagram) -> Ring | None:
    """A ``Ring`` as it is, or a diagram's ring layout; None for a
    diagram without one, which the state sums take."""
    if isinstance(shape, Ring):
        return shape
    try:
        return _ring_layout(shape)[0]
    except LayoutError:
        return None


# -- fused fast path: the ring sum as a truncated q-series ----------------------
#
# Put x = A^4.  Then [k]! = A^(-k(k-1)) F_k(x) with
# F_k(x) = prod_{j<=k} (1 - x^j) / (1 - x) and F_k(0) = 1, so a ratio of
# quantum factorials is +-A^s times prod_j (1 - x^j)^w_j for its net
# exponent vector w, a power series over Z.  Modulo x^M only the factors
# with j < M matter, so a ratio costs O(M) vector steps at any color, and
# factors that cancel are never multiplied in.  Loop values, theta, every
# term of the tetrahedral sum and so every channel weight c[q][p] is such
# a series, and the ring sum
#
#     sum_q delta(2q) prod_columns sum_p c[q][p] * twist_p^k
#
# is a sum of shifted products of them: a twist monomial is a digit shift,
# and a term that starts at or beyond digit M is never computed.  Modulo
# x^M the sum needs no common denominator and no division, and dividing by
# delta(n) is one multiplication by (-1)^n A^(2n) F_n / F_(n+1).
#
# The ring sum is evaluated as Python ints at X = 2^(8*width): x^i -> X^i
# is a ring map from Z[x]/(x^M) onto Z/X^M, so masking after every product
# keeps the ints short, and the digits read back exactly as soon as every
# coefficient of the result fits with a sign.  The width comes from the L1
# bound sum_q |delta(2q)|_1 prod_columns sum_p |c[q][p]|_1 over the
# truncated series; truncation never raises an L1 norm.
#
# A column's factor sum_p c[q][p] * twist_p^k depends only on the color,
# the exit q and its count k, so a ``ColumnMemo`` keeps it for one family
# evaluation: for its one color, the twist monomials, and per column the
# nominal lowest exponent keyed by (q, k), the channels below the exit's
# reach m keyed by (q, k, m), their L1 bound keyed by (q, k, m, digits), and
# their packed sum keyed by (q, k, m, digits, width).  It also keeps the
# weights themselves: the longest series built of each symmetric tet/theta
# part and of each c[q][p], and per (q, p, digits) the weight's L1 norm and
# its packings by width.  A
# shorter precision takes a slice of the longest series, which is exact:
# every step that builds one is an operation modulo x^M that a longer
# precision only extends.  The family callers in ``stability`` make one
# per family; a lone window or a full polynomial makes its own.  The memo
# dies with its family, so a value it holds is never older than the family,
# and no weight outlives it.


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
def _nominal(n: int, q: int | None, p: int) -> int:
    """The A-exponent the series of c[q][p] starts at; q None stands for
    the weight delta(2p) of a region closed around the side.  Every weight
    is symmetric under A -> 1/A, so its top exponent is minus this.

    The A-shift of term u of the tetrahedral sum is the convex quadratic
    6u^2 + beta u + (its value at u = 0), with beta = 4b - 8a - 4n - 2 read
    off ``_tet_factorials``, so its least value over the terms is at an
    integer next to the vertex -beta/12, clamped to the term range: no
    term list is built.

    Adjacent channels differ by -4(p+1) <= _nominal(n, q, p+1) -
    _nominal(n, q, p) <= 4p, which lets ``ColumnMemo`` walk a column's
    channels outward from its lowest one.  For q None the step is -4.
    Otherwise term u of channel p has the shift S(a, b, u) - 4p, with
    S = 2a^2 - 4ab + 4an + 2a + 2n + 6u^2 + (4b - 8a - 4n - 2)u over
    0 <= u <= min(n - b, a), so the step is -4 plus the change of the
    least S, which lies in [-4p, 4(p+1)]: compare each side's least term
    with a term of the other side.

    * p >= q raises b = p.  The range only shrinks, and at a fixed u, S
      moves by 4(u - a), in [-4p, 0].  Only u = n - b leaves the range;
      u - 1 at b + 1 lies 4(a + b - n + 1) <= 4(p + 1) above it.
    * p < q raises a = p.  The range only grows, and raising u with a
      moves S by 4(u - a), in [-4p, 0].  Where u + 1 leaves the range,
      u = n - b, and raising a alone moves S by 4(a + b - n + 1) <=
      4(p + 1); at u = 0 raising a alone moves S by 4(a - b + n + 1) > 0.
    """
    if q is None:
        return -4 * p
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


def _longest(store: dict, key, digits: int, build) -> list[int]:
    # the series kept under ``key`` cut to ``digits``, built anew by
    # ``build(digits)`` when the kept one is shorter
    have = store.get(key)
    if have is None or have[0] < digits:
        have = store[key] = digits, build(digits)
    kept, series = have
    return series if kept == digits else series[:digits]


class ColumnMemo:
    """The column factors of ring sums at one color, kept for one family
    evaluation, so a member rebuilds only the columns whose count changed
    (what it holds, and under which keys, is in the comment above
    ``_quarters``).  Asking for another color empties it."""

    def __init__(self) -> None:
        self._n: int | None = None

    def _color(self, n: int) -> None:
        # every method calls this when asked for another color than the last
        self._n = n
        # the twist monomial twist_coeff(n, n, 2p) of channel p:
        # (A-exponent, sign) = (2n - 2p + n^2 - 2p^2, (-1)^(n-p))
        self._mus = [(2 * (n - p) + n * n - 2 * p * p,
                      -1 if (n - p) % 2 else 1) for p in range(n + 1)]
        self._least: dict = {}
        self._terms: dict = {}
        self._norms: dict = {}
        self._packed: dict = {}
        self._symmetric: dict = {}
        self._weights: dict = {}
        self._channels: dict = {}

    def least(self, n: int, q: int | None, k: int) -> int:
        """The nominal lowest A-exponent of a column of k crossings on exit
        q: the least of sum_p c[q][p] * twist_p^k over its terms.

        Channel p's twist exponent falls by 4(p+1) per crossing from p to
        p+1, and ``_nominal`` rises by at most 4p, so for k >= 1 the
        column's exponent falls strictly with p and the least is at
        p = n; ``_nominal`` falls by at most 4(p+1), so for k <= -1 it
        never falls with p and the least is at p = 0.  Only k = 0 scans
        every channel.
        """
        if n != self._n:
            self._color(n)
        key = q, k
        if key not in self._least:
            ps = range(n + 1) if k == 0 else (n,) if k > 0 else (0,)
            self._least[key] = min(_nominal(n, q, p) + self._mus[p][0] * k
                                   for p in ps)
        return self._least[key]

    def terms(self, n: int, q: int | None, k: int,
              m: int) -> list[tuple[int, bool, int]]:
        """The column's terms that start below digit ``m`` of its lowest
        exponent, each (digit offset, negated, channel p).

        The walk starts at the lowest channel (see ``least``) and moves
        away from it, and the offsets never fall along it, so it stops at
        the first channel that starts at digit ``m`` or beyond.  No weight
        is built.
        """
        if n != self._n:
            self._color(n)
        key = q, k, m
        if key not in self._terms:
            least = self.least(n, q, k)
            terms = []
            for p in range(n, -1, -1) if k > 0 else range(n + 1):
                e, s = self._mus[p]
                off = _quarters(_nominal(n, q, p) + e * k - least)
                if off < m:
                    terms.append((off, s < 0 and k % 2 == 1, p))
                elif k:
                    break
            self._terms[key] = terms
        return self._terms[key]

    def norm(self, n: int, q: int | None, k: int, m: int, digits: int) -> int:
        """The L1 bound of the column's terms below digit ``m``, modulo
        x^digits."""
        if n != self._n:
            self._color(n)
        key = q, k, m, digits
        if key not in self._norms:
            chans = self._channels
            self._norms[key] = sum(
                (chans.get((q, p, digits)) or self._channel(n, q, p, digits))[0]
                for _, _, p in self.terms(n, q, k, m))
        return self._norms[key]

    def _channel(self, n: int, q: int | None, p: int,
                 digits: int) -> tuple[int, dict[int, int]]:
        # the L1 norm of c[q][p] modulo x^digits, and the weight packed by
        # width (members of one family mostly share their digit width, so
        # each weight is packed about once per family), kept under
        # (q, p, digits); callers look there first
        chan = self._channels[q, p, digits] = (
            sum(map(abs, self.weight(n, q, p, digits))), {})
        return chan

    def weight(self, n: int, q: int | None, p: int, digits: int) -> list[int]:
        """c[q][p] = delta(2p) tet / (theta_p theta_q) modulo x^digits above
        ``_nominal(n, q, p)``; q None gives delta(2p).

        Only the tet/theta part is symmetric in p and q, so it is kept
        once per pair; delta(2p) belongs to the column channel p.
        """
        if n != self._n:
            self._color(n)
        if q is None:
            return [1] * min(2 * p + 1, digits)
        a, b = min(p, q), max(p, q)

        def build(digits: int) -> list[int]:
            c = list(_longest(self._symmetric, (a, b), digits,
                              lambda d: _symmetric(n, a, b, d)))
            _times(c, 2 * p + 1)
            _over(c, 1)
            return c

        return _longest(self._weights, (q, p), digits, build)

    def packed(self, n: int, q: int | None, k: int, m: int, digits: int,
               width: int) -> int:
        """The column's terms below digit ``m``, summed at X = 2^(8*width)."""
        if n != self._n:
            self._color(n)
        key = q, k, m, digits, width
        if key not in self._packed:
            digit = 8 * width
            acc = 0
            chans = self._channels
            for off, neg, p in self.terms(n, q, k, m):
                packs = (chans.get((q, p, digits))
                         or self._channel(n, q, p, digits))[1]
                if width not in packs:
                    packs[width] = _pack_series(self.weight(n, q, p, digits),
                                                width)
                c = packs[width] << (digit * off)
                acc = acc - c if neg else acc + c
            self._packed[key] = acc
        return self._packed[key]


def _exit_lows(memo: ColumnMemo, n: int, style: str,
               twists: Sequence[int]) -> dict[int | None, int]:
    """The nominal lowest A-exponent of the ring sum's terms by exit
    channel q.  delta(2q) = A^(-4q) (1 + ... + x^2q); a region closed
    around the side ("trace") is the single exit q None, sum_p delta(2p) *
    twist_p^k."""
    return {q: -4 * (q or 0) + sum(memo.least(n, q, k) for k in twists)
            for q in ([None] if style == "trace" else range(n + 1))}


def _span(memo: ColumnMemo, n: int, style: str, twists: Sequence[int],
          loops: int) -> tuple[int, int]:
    """The nominal lowest and highest A-exponents of the fused bracket times
    delta(n)^loops.  The bracket at 1/A is the mirror's, whose twists are
    negated, so the top is minus the mirror's nominal bottom."""
    low = min(_exit_lows(memo, n, style, twists).values())
    top = -min(_exit_lows(memo, n, style, [-k for k in twists]).values())
    return low - 2 * n * loops, top + 2 * n * loops


def _ring_digits(n: int, style: str, twists: Sequence[int], loops: int,
                 memo: ColumnMemo, max_networks: int,
                 digits: int) -> tuple[int, dict[int, int]]:
    """The fused bracket times delta(n)^loops (loops >= -1) modulo x^digits
    above its nominal lowest A-exponent: that exponent, and the nonzero
    digits by position.  ``memo`` holds the columns of the family.

    The fusion budget: past ``max_networks`` column terms in the plan,
    counted over the exits that start below digit ``digits`` and the
    channels each column reaches there, ``BudgetError`` is raised before
    any weight is built.
    """
    lows = _exit_lows(memo, n, style, twists)
    base = min(lows.values())
    # the exits that start below digit ``digits``, each with its reach m
    plan, terms = [], 0
    for q, low in lows.items():
        at = _quarters(low - base)
        m = digits - at
        if m <= 0:
            continue
        plan.append((q, at, m, min(2 * (q or 0) + 1, m)))
        for k in twists:
            terms += len(memo.terms(n, q, k, m))
        if terms > max_networks:
            raise BudgetError(
                f"at least {terms} fusion column terms exceed the "
                f"configured cap of {max_networks}"
            )
    bound = 0
    for q, at, m, length in plan:
        norm = length
        for k in twists:
            norm *= memo.norm(n, q, k, m, digits)
        bound += norm
    bound *= _loop_norm(n, loops, digits)
    width = bound.bit_length() // 8 + 1
    total = 0
    for q, at, m, length in plan:
        prod = _ones(length, width)
        for k in twists:
            prod = _mask(prod * memo.packed(n, q, k, m, digits, width),
                         m, width)
        total += prod << (8 * width * at)
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
        # times (1 - x), then over (1 - x^(n+1)), which is times
        # (1 + x^j)(1 + x^2j)(1 + x^4j)... for j = n + 1
        t = _mask(t - (t << digit), digits, width)
        j = n + 1
        while j < digits:
            t = _mask(t + (t << (digit * j)), digits, width)
            j *= 2
    return t


def _ring_polynomial(n: int, style: str, twists: Sequence[int], loops: int,
                     *, max_networks: int = 100_000) -> LaurentPoly:
    """The fused bracket times delta(n)^loops (loops >= -1), whole.

    A polynomial is its own power series, so the ring sum taken to the
    top of its nominal span is exact.  The two digits past the top vanish
    for a Laurent polynomial; a nonzero one means a weight, or the loop
    division, left the ring of Laurent polynomials.  The span reaches
    about every channel of every exit, so the fusion budget of
    ``_ring_digits`` counts about r * (n+1)^2 column terms here.
    """
    memo = ColumnMemo()
    low, top = _span(memo, n, style, twists, loops)
    span = _quarters(top - low) + 1
    low, out = _ring_digits(n, style, twists, loops, memo, max_networks,
                            span + 2)
    if max(out, default=0) >= span:
        raise ExactDivisionError(
            "fused bracket is not a Laurent polynomial; this signals a "
            f"convention bug upstream: the ring sum of {len(twists)} columns "
            f"at color {n} has a coefficient past the top of its span"
        )
    return LaurentPoly({low + 4 * i: c for i, c in out.items()})


def colored_bracket_fused(
    diagram: LinkDiagram, n: int, *, max_networks: int = 100_000
) -> BracketValue:
    """Color-n bracket with every twist region fused into channels.

    Each region of k crossings becomes a sum over channels p with
    weight [loop(2p)/theta(n,n,2p)] * twist(n,n,2p)^k.  A region closed
    around the side leaves one theta network per channel, so its total
    is sum_p loop(2p) * twist^k.  A ring of r regions is grouped by its
    common exit channel q: the total is sum_q loop(2q) times the product
    over columns of sum_p c[q][p] * twist^k, with c[q][p] =
    loop(2p) tet(n,n,2p,n,n,2q) / (theta_p theta_q).  The sum is taken as
    a truncated power series in A^4 (``_ring_digits``) to the top of its
    nominal span, and two digits past it that must vanish.  The budget
    counts the column terms this builds, about r * (n+1)^2.
    """
    if n < 1:
        raise ValueError(f"cable color must be >= 1, got {n}")
    if diagram.crossing_count == 0:
        return BracketValue(delta(n) ** diagram.free_loops)
    ring, _ = _ring_layout(diagram)
    return BracketValue(_ring_polynomial(n, ring.style, ring.counts,
                                         ring.loops, max_networks=max_networks))


# -- oracle: the colored state sum ----------------------------------------------


def _classical_state_sum(diagram: LinkDiagram) -> LaurentPoly:
    # literal enumeration; independent of the sweep in bracket_state_sum.
    # States are tallied by (circle count, sign sum), and each distinct
    # key's term delta^circles A^sum is built once.
    count_circles = _circle_counter(diagram)
    tally = collections.Counter(
        (count_circles(signs), sum(signs))
        for signs in itertools.product((+1, -1), repeat=diagram.crossing_count))
    total = ZERO
    for (circles, shift), count in tally.items():
        total = total + (DELTA**circles).shifted(shift).scaled(count)
    return total


@functools.cache
def _clasped_step(n: int) -> TLMorphism:
    # S = sum_i fusion_coeff(n, i) * turnback(n, i) ff, ff = JW_n (x) JW_n
    ff = _clasped_column(n, 0)
    return functools.reduce(operator.add, (
        compose(turnback(n, i), ff).scaled(fusion_coeff(n, i))
        for i in range(n + 1)))


@functools.cache
def _clasped_column(n: int, k: int) -> TLMorphism:
    # a column of k clasped crossings, ff S^k
    if k == 0:
        return tensor(jones_wenzl(n), jones_wenzl(n))
    return compose(_clasped_column(n, k - 1), _clasped_step(n))


def colored_state_sum(
    diagram: LinkDiagram, n: int, *, max_networks: int = 100_000
) -> BracketValue:
    """Color-n bracket as a state sum over clasped crossing smoothings.

    Every crossing takes one of n+1 smoothings; a state's network is
    the diagram with each crossing replaced by its clasped turnback
    and each state carries the product of its smoothing weights.

    For n = 1 the smoothings are the classical ones and the sum runs
    by circle counting on any diagram, the states tallied by circle
    count and sign sum.  For n >= 2
    the diagram must lay out as a ring of labeled twist regions, and
    the sum is contracted instead of enumerated: composition is
    bilinear, so one clasped step S = sum_i fusion_coeff(n, i) *
    turnback(n, i) ff, with ff = JW_n (x) JW_n, sums the smoothings of a
    crossing, and a column of k crossings is ff S^k.  The step and the
    columns are memoized per color, so equal counts share one column,
    within a diagram and across diagrams, and a diagram whose columns
    are built composes only its ring seams.  ``planar.close_ring``
    closes the columns: quarter-turned, they stack in ring order under
    the Markov trace, and a region closed around the side is the trace
    of its column.  Every composition runs at width 2n.

    The budget still counts the (n+1)^c states.
    """
    if n < 1:
        raise ValueError(f"cable color must be >= 1, got {n}")
    c = diagram.crossing_count
    if (n + 1) ** c > max_networks:
        raise BudgetError(
            f"{(n + 1) ** c} state networks exceed the configured cap of "
            f"{max_networks}"
        )
    if c == 0:
        return BracketValue(delta(n) ** diagram.free_loops)
    if n == 1:
        return BracketValue(_classical_state_sum(diagram))
    ring, _ = _ring_layout(diagram)
    # built in order, so each new power is one composition
    powers = [_clasped_column(n, k) for k in range(max(ring.counts) + 1)]
    total = close_ring([powers[k] for k in ring.counts], ring.style)
    try:
        value = total.to_poly()
    except ExactDivisionError as err:
        raise ExactDivisionError(
            "colored state sum is not a Laurent polynomial; this signals "
            f"a convention bug upstream: {err}"
        ) from None
    if diagram.free_loops:
        value = value * delta(n) ** diagram.free_loops
    return BracketValue(value)


# -- routing and reduced polynomials --------------------------------------------


def _state_sum_bracket(diagram: LinkDiagram, n: int, *,
                       max_crossings: int = 20,
                       max_networks: int = 100_000) -> LaurentPoly:
    """The color-n bracket of a diagram without a ring layout, by the
    state-sum oracle that takes it: the frontier sweep at n = 1, the
    clasped state sum above (which needs a ring layout of its own)."""
    if diagram.crossing_count == 0:
        return delta(n) ** diagram.free_loops
    if n == 1:
        return bracket_state_sum(diagram, max_crossings=max_crossings).value
    return colored_state_sum(diagram, n, max_networks=max_networks).value


def unreduced_colored_jones(
    diagram: LinkDiagram,
    n: int,
    *,
    max_crossings: int = 20,
    max_networks: int = 100_000,
) -> BracketValue:
    """Bracket of the diagram with every component cabled by color n.

    The value is one representative of the invariant: the framing
    monomial is deliberately left uncorrected, so consumers must only
    rely on normalized coefficient windows.  Fully-regioned diagrams
    route through the fused path; anything else falls back to the
    matching state-sum oracle.
    """
    if n < 1:
        raise ValueError(f"cable color must be >= 1, got {n}")
    try:
        return colored_bracket_fused(diagram, n, max_networks=max_networks)
    except LayoutError:
        pass
    return BracketValue(_state_sum_bracket(
        diagram, n, max_crossings=max_crossings, max_networks=max_networks))


def _reduced_state_sum(diagram: LinkDiagram, n: int, *,
                       max_crossings: int = 20,
                       max_networks: int = 100_000) -> QPoly:
    # the state sum's bracket over delta(n), the one schoolbook division
    return substitute_quarter(exact_div(
        _state_sum_bracket(diagram, n, max_crossings=max_crossings,
                           max_networks=max_networks),
        delta(n)))


def reduced_jones(
    diagram: LinkDiagram,
    N: int,
    *,
    max_crossings: int = 20,
    max_networks: int = 100_000,
) -> QPoly:
    """The reduced polynomial indexed N >= 2: cable color N-1, one loop
    factor divided out, exponents read in the quarter-power variable.

    The result keeps the pipeline's framing monomial; normalize the
    coefficient window downstream before comparing across diagrams.  A
    ring layout takes the loop factor out inside its series; only the
    state-sum fallback divides by delta(n).
    """
    if N < 2:
        raise ValueError(f"reduced polynomials start at index 2, got {N}")
    n = N - 1
    ring = _as_ring(diagram)
    if ring is None:
        return _reduced_state_sum(diagram, n, max_crossings=max_crossings,
                                  max_networks=max_networks)
    return substitute_quarter(_ring_polynomial(
        n, ring.style, ring.counts, ring.loops - 1, max_networks=max_networks))


# -- degree predictors -----------------------------------------------------------


def predicted_min_degree(diagram: LinkDiagram, n: int) -> int:
    """Closed-form minimum degree -c n^2 - 2 n |s_-| of the color-n bracket.

    For n = 1 the diagram must have a loop-free all-negative state
    graph; for higher colors it must also be alternating with a
    loop-free all-positive graph.  Diagrams failing the gate raise
    ``AdequacyError`` rather than returning a wrong number.
    """
    if n < 1:
        raise ValueError(f"cable color must be >= 1, got {n}")
    if n == 1:
        if not is_minus_adequate(diagram):
            raise AdequacyError(
                "the all-negative state graph has a loop; the closed form "
                "does not apply"
            )
    else:
        if not is_alternating(diagram):
            raise AdequacyError(
                "the diagram is not alternating; the colored closed form "
                "does not apply"
            )
        if not is_adequate(diagram):
            raise AdequacyError(
                "a state graph has a loop; the colored closed form does "
                "not apply"
            )
    s_minus = apply_state(diagram, State.all_minus(diagram))
    c = diagram.crossing_count
    return -c * n * n - 2 * n * s_minus


def channel_probe(diagram: LinkDiagram, n: int, p: int) -> RationalFn:
    """Probe network value: the lowest-labeled region becomes one channel.

    The designated region's crossings are dropped in favor of a single
    (n, n, 2p) channel with 0 <= p < n; every other region keeps its
    crossings as clasped cable crossings.  ``close_ring`` closes the
    columns exactly as the diagram's ring does.
    """
    if n < 1:
        raise ValueError(f"cable color must be >= 1, got {n}")
    if not 0 <= p < n:
        raise ValueError(f"channel color must satisfy 0 <= p < {n}, got {p}")
    if diagram.free_loops:
        raise LayoutError("free loops do not fit in a probe network")
    ring, _ = _ring_layout(diagram)  # the target is the first column
    ff = tensor(jones_wenzl(n), jones_wenzl(n))
    cross = cabled_crossing(n, -1)
    columns: list[TLMorphism] = []
    for i, k in enumerate(ring.counts):
        if i == 0:
            columns.append(channel_element(n, p))
            continue
        m = ff
        for _ in range(k):
            m = compose(m, cross)
        columns.append(m)
    return close_ring(columns, ring.style)
