"""Bracket evaluation pipelines.

Three independent routes to the same exact values:

* ``bracket_state_sum``: the classical bracket by a frontier sweep
  over smoothings, merging equal boundary connections (n = 1 only).
* ``colored_state_sum``: the n-colored state sum, expanding every
  cable crossing into weighted clasped turnbacks.
* ``colored_bracket_fused``: the twist-region fast path, collapsing
  each labeled region into a sum over colored channels whose k-fold
  twisting is plain exponent arithmetic.  It is pure closed-form
  algebra (loop values, theta, tetrahedral coefficients and twist
  monomials); the Temperley-Lieb networks here only check it.

On top of these sit reduced polynomial extraction, the closed-form
minimum-degree predictors, and the channel probe network that replaces
one region by a single colored channel.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .algebra import (
    DELTA,
    ONE,
    ZERO,
    ExactDivisionError,
    LaurentPoly,
    QPoly,
    _pack,
    _packed_quotient,
    cancel_factors,
    delta,
    exact_div,
    fusion_coeff,
    phi_power,
    substitute_quarter,
    tet_factors,
    theta_factors,
    twist_coeff,
)
from .diagram import (
    DiagramError,
    LinkDiagram,
    State,
    TwistRegion,
    apply_state,
    is_adequate,
    is_alternating,
    is_minus_adequate,
)
from .planar import (
    SliceProgram,
    TLMorphism,
    cabled_crossing,
    channel_element,
    compose,
    evaluate,
    jones_wenzl,
    plat_program,
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
class _Column:
    """One twist region with its boundary arcs, (bottom, top) per side."""

    region: TwistRegion
    left: tuple[int, int]
    right: tuple[int, int]


@dataclass(frozen=True)
class _RingLayout:
    style: str  # "ring" (cyclic columns, includes r=1 plat) or "trace"
    columns: tuple[_Column, ...]


def _variants(col: _Column):
    bl, tl = col.left
    br, tr = col.right
    yield col
    yield _Column(col.region, (br, tr), (bl, tl))  # mirrored
    yield _Column(col.region, (tl, bl), (tr, br))  # upside down
    yield _Column(col.region, (tr, br), (tl, bl))  # both


def _ring_layout(diagram: LinkDiagram) -> _RingLayout:
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
    if len(cols) == 1:
        (bl, tl), (br, tr) = cols[0].left, cols[0].right
        if bl == br and tl == tr:
            return _RingLayout("ring", tuple(cols))
        if bl == tl and br == tr:
            return _RingLayout("trace", tuple(cols))
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
            return _RingLayout("ring", tuple(order))
    raise LayoutError("labeled regions do not close into a single ring")


# -- fused fast path -----------------------------------------------------------


def _twist_power(n: int, p: int, k: int) -> LaurentPoly:
    # k crossings on the 2p channel: a monomial power, never an
    # iterated expansion
    mu = twist_coeff(n, n, 2 * p)
    e = mu.min_degree()
    sign = mu.terms[e]
    return LaurentPoly.monomial(e * k, sign**k)


@functools.cache
def _channel_table(n: int) -> tuple[tuple[tuple[LaurentPoly, ...], ...], LaurentPoly]:
    """The color-n channel-mixing coefficients over one denominator.

    Returns (num, D) with num[q][p] / D equal to
    delta(2p) * tet(n, n, 2p, n, n, 2q) / (theta_p * theta_q), the
    weight of channel p in a column read over the exit channel q.  The
    tetrahedral coefficient is symmetric in p and q, so each unordered
    pair costs one ``tet_factors``.  Every weight is a polynomial times
    a product of cyclotomic factors Phi_d(A^4)^e; after cancelling, D
    takes each factor to the largest power any weight divides by.
    """
    thetas = [theta_factors(n, n, 2 * p) for p in range(n + 1)]
    mix: dict[tuple[int, int], tuple[LaurentPoly, dict[int, int]]] = {}
    for q in range(n + 1):
        for p in range(q + 1):
            num, vec = tet_factors(n, n, 2 * p, n, n, 2 * q)
            for sign, shift, t_vec in (thetas[p], thetas[q]):
                num = num.shifted(-shift).scaled(sign)
                for d, e in t_vec.items():
                    vec[d] = vec.get(d, 0) - e
            mix[p, q] = cancel_factors(num, vec)
    den: dict[int, int] = {}
    for _, vec in mix.values():
        for d, e in vec.items():
            den[d] = max(den.get(d, 0), -e)
    over = {
        pair: num * phi_power({d: vec.get(d, 0) + e for d, e in den.items()})
        for pair, (num, vec) in mix.items()
    }
    table = tuple(
        tuple(delta(2 * p) * over[min(p, q), max(p, q)] for p in range(n + 1))
        for q in range(n + 1)
    )
    return table, phi_power(den)


def _ring_bracket(n: int, twists: Sequence[int]) -> LaurentPoly:
    # sum_q loop(2q) prod_columns (sum_p num[q][p] * twist_p^k) / D^r,
    # evaluated as ints at X = 2^(8*width): see colored_bracket_fused
    num, den = _channel_table(n)
    r = len(twists)
    mus = [next(iter(twist_coeff(n, n, 2 * p).terms.items()))
           for p in range(n + 1)]
    loops = [delta(2 * q).terms for q in range(n + 1)]
    entries = [t.terms for row in num for t in row if t]
    lo, lo_loop, lo_mu = min(map(min, entries)), min(loops[n]), mus[0][0]
    step = math.gcd(*(e - lo for t in entries for e in t),
                    *(e - lo_loop for t in loops for e in t),
                    *(e - lo_mu for e, _ in mus),
                    *(e - min(den.terms) for e in den.terms)) or 1
    # |sum|_1 <= sum_q |loop(2q)|_1 * prod_columns sum_p |num[q][p]|_1
    norms = [sum(abs(c) for t in row for c in t.terms.values()) for row in num]
    bound = sum((2 * q + 1) * s**r for q, s in enumerate(norms))
    width = max(bound, *map(abs, den.terms.values())).bit_length() // 8 + 1
    digit = 8 * width
    packed = [[_pack(t.terms, lo, step, width) if t else 0 for t in row]
              for row in num]
    # twist_p^k is a shift of (e_p * k - least) / step digits and a sign
    shifts = []
    for k in twists:
        least = min(e * k for e, _ in mus)
        shifts.append((least, [(digit * ((e * k - least) // step),
                                s < 0 and k % 2 == 1) for e, s in mus]))
    total = 0
    for q in range(n + 1):
        prod = _pack(loops[q], lo_loop, step, width)
        for _, col in shifts:
            acc = 0
            for c, (shift, neg) in zip(packed[q], col):
                acc = acc - (c << shift) if neg else acc + (c << shift)
            prod *= acc
        total += prod
    lo_total = lo_loop + r * lo + sum(least for least, _ in shifts)
    quotient = _packed_quotient(total, lo_total, den.terms, r, step, width)
    if quotient is None:
        raise ExactDivisionError(
            "fused bracket is not a Laurent polynomial; this signals a "
            f"convention bug upstream: the ring sum of {r} columns at color "
            f"{n} is not divisible by D^{r}"
        )
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = quotient
    return out


def _fused_columns(diagram: LinkDiagram, n: int,
                   max_networks: int) -> tuple[str, list[int]]:
    """The ring layout's style and column twist counts, refused with
    ``BudgetError`` past r * (n+1)^2 column terms."""
    layout = _ring_layout(diagram)
    twists = [col.region.count for col in layout.columns]
    r = len(twists)
    if r * (n + 1) ** 2 > max_networks:
        raise BudgetError(
            f"{r * (n + 1) ** 2} fusion column terms exceed the configured "
            f"cap of {max_networks}"
        )
    return layout.style, twists


def colored_bracket_fused(
    diagram: LinkDiagram, n: int, *, max_networks: int = 100_000
) -> BracketValue:
    """Color-n bracket with every twist region fused into channels.

    Each region of k crossings becomes a sum over channels p with
    weight [loop(2p)/theta(n,n,2p)] * twist(n,n,2p)^k.  A region closed
    around the side leaves one theta network per channel, so its total
    is sum_p loop(2p) * twist^k.  A ring of r regions is grouped by its
    common exit channel q: the total is sum_q loop(2q) times the product
    over columns of sum_p c[q][p] * twist^k, with c = num / D from the
    memoized per-color table.  That sum is evaluated as Python ints at
    X = 2^(8*width), on one exponent lattice for the table, the loop
    values and D (``algebra._pack``), with digits wide enough for its
    L1 bound sum_q |loop(2q)|_1 prod_columns sum_p |num[q][p]|_1: a
    twist monomial is a digit shift and a sign, and the division by D^r
    is one big-int division, confirmed by multiplying back
    (``algebra._packed_quotient``).  The budget counts the r * (n+1)^2
    column terms this takes.
    """
    if n < 1:
        raise ValueError(f"cable color must be >= 1, got {n}")
    if diagram.crossing_count == 0:
        return BracketValue(delta(n) ** diagram.free_loops)
    style, twists = _fused_columns(diagram, n, max_networks)
    if style == "trace":
        value = ZERO
        for p in range(n + 1):
            value = value + delta(2 * p) * _twist_power(n, p, twists[0])
    else:
        value = _ring_bracket(n, twists)
    if diagram.free_loops:
        value = value * delta(n) ** diagram.free_loops
    return BracketValue(value)


# -- oracles: literal channel networks and the colored state sum ---------------


@dataclass(frozen=True)
class FusedTemplate:
    """A diagram reduced to its ring of channel sockets.

    This is the literal network the fused evaluator's closed forms
    stand for; the tests evaluate it channel by channel as an oracle,
    the evaluator itself never builds it.  ``base`` is the closed network program with every socket holding
    the channel of color 0; the i-th region's socket is the slice at
    index ``sockets[i]``.  ``twists`` lists the region crossing
    counts in the same order, ``rids`` the region labels.  ``style``
    is "ring" for the cyclic plat arrangement and "trace" for a
    single region closed around the side.
    """

    base: SliceProgram
    sockets: tuple[int, ...]
    color: int
    twists: tuple[int, ...]
    rids: tuple[int, ...]
    style: str = "ring"

    def with_rungs(self, ps: Sequence[int]) -> SliceProgram:
        """The base program with socket i holding the channel ps[i]."""
        if len(ps) != len(self.sockets):
            raise ValueError(
                f"template has {len(self.sockets)} sockets, got {len(ps)} channels"
            )
        slices = list(self.base.slices)
        for idx, p in zip(self.sockets, ps):
            if not 0 <= p <= self.color:
                raise ValueError(
                    f"channel {p} outside 0..{self.color}"
                )
            kind, _, pos = slices[idx]
            slices[idx] = (kind, channel_element(self.color, p), pos)
        return SliceProgram(slices)


def build_fused_template(diagram: LinkDiagram, n: int) -> FusedTemplate:
    """Lay the labeled regions out as a ring of color-n channel sockets.

    Every crossing must belong to a labeled region and the regions
    must close into a single ring (or one region closing around the
    side).  The template's sockets can then be recolored with
    ``with_rungs`` without touching the diagram again.
    """
    if n < 1:
        raise ValueError(f"cable color must be >= 1, got {n}")
    layout = _ring_layout(diagram)
    cols = layout.columns
    twists = tuple(col.region.count for col in cols)
    rids = tuple(col.region.rid for col in cols)
    prog = plat_program([channel_element(n, 0)] * len(cols), n, layout.style)
    if layout.style == "trace":
        sockets = (2 * n,)
    else:
        sockets = tuple(range(1, len(cols) + 1))
    return FusedTemplate(prog, sockets, n, twists, rids, layout.style)


def _classical_state_sum(diagram: LinkDiagram) -> LaurentPoly:
    # literal enumeration; independent of the sweep in bracket_state_sum
    total = ZERO
    for signs in itertools.product((+1, -1), repeat=diagram.crossing_count):
        circles = apply_state(diagram, dict(enumerate(signs)))
        total = total + (DELTA**circles).shifted(sum(signs))
    return total


def colored_state_sum(
    diagram: LinkDiagram, n: int, *, max_networks: int = 100_000
) -> BracketValue:
    """Color-n bracket as a state sum over clasped crossing smoothings.

    Every crossing takes one of n+1 smoothings; a state's network is
    the diagram with each crossing replaced by its clasped turnback
    and each state carries the product of its smoothing weights.  The
    (n+1)^c networks are contracted column by column (grouping states
    that agree outside a column, which changes nothing exactly), so
    the sum needs one closed-network evaluation per diagram.

    For n = 1 the smoothings are the classical ones and the sum runs
    by circle counting on any diagram; for n >= 2 the diagram must lay
    out as a ring of labeled twist regions.
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
    layout = _ring_layout(diagram)
    ff = tensor(jones_wenzl(n), jones_wenzl(n))
    columns: list[TLMorphism] = []
    for col in layout.columns:
        m = ff
        for _ in range(col.region.count):
            step: TLMorphism | None = None
            for i in range(n + 1):
                term = compose(compose(m, turnback(n, i)), ff)
                term = term.scaled(fusion_coeff(n, i))
                step = term if step is None else step + term
            m = step
        columns.append(m)
    total = evaluate(plat_program(columns, n, layout.style))
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
    if diagram.crossing_count == 0:
        return BracketValue(delta(n) ** diagram.free_loops)
    try:
        return colored_bracket_fused(diagram, n, max_networks=max_networks)
    except LayoutError:
        pass
    if n == 1:
        return bracket_state_sum(diagram, max_crossings=max_crossings)
    return colored_state_sum(diagram, n, max_networks=max_networks)


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
    coefficient window downstream before comparing across diagrams.
    """
    if N < 2:
        raise ValueError(f"reduced polynomials start at index 2, got {N}")
    n = N - 1
    unreduced = unreduced_colored_jones(
        diagram,
        n,
        max_crossings=max_crossings,
        max_networks=max_networks,
    )
    quotient = exact_div(unreduced.value, delta(n))
    return substitute_quarter(quotient)


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


def build_upsilon(diagram: LinkDiagram, n: int, p: int) -> SliceProgram:
    """Probe network: the lowest-labeled region becomes one channel.

    The designated region's crossings are dropped in favor of a single
    (n, n, 2p) channel with 0 <= p < n; every other region keeps its
    crossings as clasped cable crossings, to be expanded on
    evaluation.  The program closes the columns exactly as the
    diagram's ring does.
    """
    if n < 1:
        raise ValueError(f"cable color must be >= 1, got {n}")
    if not 0 <= p < n:
        raise ValueError(f"channel color must satisfy 0 <= p < {n}, got {p}")
    if diagram.free_loops:
        raise LayoutError("free loops do not fit in a probe network")
    layout = _ring_layout(diagram)
    target = min(col.region.rid for col in layout.columns)
    ff = tensor(jones_wenzl(n), jones_wenzl(n))
    cross = cabled_crossing(n, -1)
    columns: list[TLMorphism] = []
    for col in layout.columns:
        if col.region.rid == target:
            columns.append(channel_element(n, p))
            continue
        m = ff
        for _ in range(col.region.count):
            m = compose(m, cross)
        columns.append(m)
    return plat_program(columns, n, layout.style)
