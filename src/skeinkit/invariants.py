"""Bracket evaluation pipelines, and the routes from a diagram to a value.

Three independent routes to the same exact values:

* ``bracket_state_sum``: the classical bracket by a frontier sweep
  over smoothings, merging equal boundary connections (n = 1 only).
* ``colored_state_sum``: the n-colored state sum of a diagram with a
  ring layout, at every color: each cable crossing expands into weighted
  clasped turnbacks, and the sum is contracted at width 2n, one clasped
  step morphism per color, a power of it per column, and the ring closed
  as the Markov trace of the quarter-turned columns stacked in ring
  order.
* ``colored_bracket_fused``: the twist-region fast path, the closed-form
  ring sum of ``series`` over the diagram's ``Ring`` (its column twist
  counts and free loops, all the path reads of it).  The Temperley-Lieb
  networks here only check it.

The routers ``unreduced_colored_jones``, ``reduced_jones``,
``bracket_window``, ``reduced_window`` and ``family_windows`` send a
diagram with a ring layout to the series engine.  One without has a
value at color 1 only, from the frontier sweep (or, without crossings,
its loop factors at any color); above color 1 it raises ``LayoutError``.
Beside them sit the closed-form minimum-degree
predictors, and ``channel_probe``, the value of the network that
replaces one region by a single colored channel.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .algebra import (
    DELTA,
    ONE,
    ZERO,
    ExactDivisionError,
    LaurentPoly,
    QPoly,
    RationalFn,
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
    apply_state,
    is_adequate,
    is_alternating,
    is_minus_adequate,
)
from .planar import (
    TLMorphism,
    channel_element,
    close_ring,
    compose,
    jones_wenzl,
    tensor,
    turnback,
)
from .series import (
    BudgetError,
    CoeffList,
    ColumnMemo,
    Ring,
    _window_digits,
    ring_polynomial,
    ring_window,
    window_from_bracket,
    window_from_reduced,
)


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


def _ring_layout(diagram: LinkDiagram) -> tuple[Ring, tuple[int | None, ...]]:
    """The diagram as a ``Ring``, with the region id of each column, None
    at a zero column.

    The columns are the labeled regions with crossings; a zero region is
    a label only.  A column side that is one arc closing on itself has a
    zero column beside it.  The columns are walked in runs: a run starts
    at a closed side, its column turned so that the side is on its left,
    follows exact side matches to the right up to a closed side, and one
    zero column follows it.  Each side meets at most one other column, so
    nothing is searched.  Without a closed side the walk starts at the
    lowest-labeled column and must come back to it.  The ring is turned
    so that the lowest-labeled column comes first.  A diagram that does
    not lay out as a ring raises ``LayoutError``.
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
    # each column with its (bottom, top) arcs on the left and on the right
    cols = [(reg, diagram.sides[reg.rid][:2], diagram.sides[reg.rid][2:])
            for reg in regions if reg.count]
    if not cols:
        raise LayoutError("every labeled region was smoothed away")
    # each column by the arcs of each side, with the side across from it
    beside: dict[tuple[int, int], list] = {}
    for reg, left, right in cols:
        for side, across in ((left, right), (right, left)):
            beside.setdefault((min(side), max(side)), []).append(
                (reg, side, across))
    todo = {reg.rid for reg, _, _ in cols}
    counts: list[int] = []
    ids: list[int | None] = []

    def walk(reg: TwistRegion, right: tuple[int, int]) -> tuple[int, int]:
        # the run from reg rightwards; returns its last column's right side
        while True:
            todo.remove(reg.rid)
            counts.append(reg.count)
            ids.append(reg.rid)
            b, t = right
            for reg, side, across in beside[min(b, t), max(b, t)]:
                if reg.rid in todo:
                    break
            else:
                return right
            # turned so the matched side is on its left, upside down if
            # its arcs run the other way
            right = across if side == (b, t) else across[::-1]

    closes = True  # left sides first: a pretzel's runs keep its order
    for reg, left, right in cols + [(reg, right, left)
                                    for reg, left, right in cols]:
        if left[0] == left[1] and reg.rid in todo:
            bottom, top = walk(reg, right)
            closes &= bottom == top
            counts.append(0)
            ids.append(None)
    if not counts:
        reg, left, right = cols[0]
        closes = walk(reg, right) == left
    if todo or not closes:
        raise LayoutError("labeled regions do not close into a single ring")
    first = ids.index(cols[0][0].rid)
    return (Ring(tuple(counts[first:] + counts[:first]), diagram.free_loops),
            tuple(ids[first:] + ids[:first]))


def colored_bracket_fused(
    diagram: LinkDiagram, n: int, *, max_networks: int = 100_000
) -> BracketValue:
    """Color-n bracket with every twist region fused into channels: the
    ring sum of the diagram's ring layout, taken as a truncated power
    series in A^4 to the top of its span (``series.ring_polynomial``).
    The budget counts the column terms this builds, about r * (n+1)^2.
    """
    if n < 1:
        raise ValueError(f"cable color must be >= 1, got {n}")
    if diagram.crossing_count == 0:
        return BracketValue(delta(n) ** diagram.free_loops)
    ring, _ = _ring_layout(diagram)
    return BracketValue(ring_polynomial(ring, n, max_networks=max_networks))


# -- oracle: the colored state sum ----------------------------------------------


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

    The diagram must lay out as a ring of labeled twist regions, at every
    color, and the sum is contracted instead of enumerated: composition
    is bilinear, so one clasped step S = sum_i fusion_coeff(n, i) *
    turnback(n, i) ff, with ff = JW_n (x) JW_n, sums the smoothings of a
    crossing, and a column of k crossings is ff S^k.  At n = 1, JW_1 is
    the identity and the step is the classical pair of smoothings.  The
    step and the columns are memoized per color, so equal counts share
    one column, within a diagram and across diagrams, and a diagram whose
    columns are built composes only its ring seams.  ``planar.close_ring``
    closes the columns: quarter-turned, they stack in ring order under
    the Markov trace, and the last seam is closed without being built
    (``planar.seam_closure``).  A region closed around its side lays out
    beside a zero column, ff = ``_clasped_column(n, 0)``.

    The budget counts what this builds: max(k) + r - 1 compositions for r
    columns (the powers, then the ring seams, the last of which is the
    closed seam), each at width 2n, where it glues at most Catalan(2n)^2
    pairs of matchings.  It is checked before anything is composed or
    closed.
    """
    if n < 1:
        raise ValueError(f"cable color must be >= 1, got {n}")
    if diagram.crossing_count == 0:
        return BracketValue(delta(n) ** diagram.free_loops)
    ring, _ = _ring_layout(diagram)
    top = max(ring.counts)
    compositions = top + len(ring.counts) - 1
    # a 2n -> 2n morphism has at most Catalan(2n) matchings
    pairs = compositions * (math.comb(4 * n, 2 * n) // (2 * n + 1)) ** 2
    if pairs > max_networks:
        raise BudgetError(
            f"{compositions} compositions gluing up to {pairs} matching "
            f"pairs at width {2 * n} exceed the configured cap "
            f"max_networks={max_networks}"
        )
    # built in order, so each new power is one composition
    powers = [_clasped_column(n, k) for k in range(top + 1)]
    total = close_ring([powers[k] for k in ring.counts])
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


# -- routing: ring layouts to the series engine, the rest to the state sums ---


def _as_ring(shape: Ring | LinkDiagram, n: int) -> Ring | None:
    """A ``Ring`` as it is, or a diagram's ring layout.  A diagram without
    one gives None at color 1, or at any color without crossings, and
    takes ``_state_sum``; above color 1 no route takes it, and its
    ``LayoutError`` propagates."""
    if isinstance(shape, Ring):
        return shape
    try:
        return _ring_layout(shape)[0]
    except LayoutError as err:
        if n > 1 and shape.crossing_count:
            raise LayoutError(
                f"color {n} needs a ring layout: {err}") from None
        return None


def _cable(index: int, reduced: bool) -> int:
    # the cable color of a bracket at color ``index``, or of the reduced
    # polynomial of that index
    if index < 1 + reduced:
        raise ValueError(f"reduced polynomials start at index 2, got {index}"
                         if reduced else f"cable color must be >= 1, got {index}")
    return index - reduced


def _state_sum(diagram: LinkDiagram, n: int, reduced: bool, *,
               max_crossings: int = 20) -> LaurentPoly | QPoly:
    """The color-n bracket of a diagram without a ring layout: its loop
    factors when it has no crossings, else the frontier sweep, which
    ``_as_ring`` lets through at color 1 only.  With ``reduced``, over
    delta(n) in q: the one schoolbook division."""
    if diagram.crossing_count == 0:
        value = delta(n) ** diagram.free_loops
    else:
        value = bracket_state_sum(diagram, max_crossings=max_crossings).value
    return substitute_quarter(exact_div(value, delta(n))) if reduced else value


def _value(shape: Ring | LinkDiagram, index: int, reduced: bool,
           max_crossings: int, max_networks: int) -> LaurentPoly | QPoly:
    n = _cable(index, reduced)
    ring = _as_ring(shape, n)
    if ring is None:
        return _state_sum(shape, n, reduced, max_crossings=max_crossings)
    return ring_polynomial(ring, n, reduced=reduced, max_networks=max_networks)


def unreduced_colored_jones(diagram: LinkDiagram, n: int, *,
                            max_crossings: int = 20,
                            max_networks: int = 100_000) -> BracketValue:
    """Bracket of the diagram with every component cabled by color n.

    The value is one representative of the invariant: the framing
    monomial is deliberately left uncorrected, so consumers must only
    rely on normalized coefficient windows.  A diagram with a ring
    layout routes through the fused path; one without takes the frontier
    sweep at n = 1 and raises ``LayoutError`` above it.
    """
    return BracketValue(_value(diagram, n, False, max_crossings,
                               max_networks))


def reduced_jones(diagram: LinkDiagram, N: int, *, max_crossings: int = 20,
                  max_networks: int = 100_000) -> QPoly:
    """The reduced polynomial indexed N >= 2: cable color N-1, one loop
    factor divided out, exponents read in the quarter-power variable.

    The result keeps the pipeline's framing monomial; normalize the
    coefficient window downstream before comparing across diagrams.  A
    ring layout takes the loop factor out inside its series; only a
    diagram without one divides by delta(n).
    """
    return _value(diagram, N, True, max_crossings, max_networks)


def family_windows(members: Iterable[Ring | LinkDiagram],
                   colors: Iterable[int], counts: Sequence[int], *,
                   reduced: bool = False,
                   max_networks: int = 100_000) -> Iterator[CoeffList]:
    """The window of each member in turn, drawn with its color as it is
    asked for: its lowest ``counts[i]`` coefficients at cable color
    ``colors[i]`` in A-units, or with ``reduced`` those of its reduced
    polynomial of index ``colors[i]`` in q-units.

    Ring layouts are taken as truncated series with a
    ``series.ColumnMemo`` per run of consecutive members at one color,
    made at the precision the run's largest count needs, so each of the
    run's weights is built once and a member rebuilds only the columns
    that changed.  Each member's ring sum is taken at the precision its
    own count needs.  A diagram with no ring layout takes its sweep's
    window at cable color 1, and raises ``LayoutError`` above it.
    """
    # the colors are read ahead, so each run's largest count is known at
    # its first member; a color that fails is raised at its own member,
    # after the members before it
    members, indices, failed = iter(members), [], None
    try:
        for _, index in zip(counts, colors):
            indices.append(index)
    except (ValueError, ArithmeticError) as exc:
        failed = exc
    for i, (shape, count) in enumerate(zip(members, counts)):
        if i == len(indices):
            if failed is None:
                return
            raise failed
        index = indices[i]
        if i == 0 or indices[i - 1] != index:
            end = i + 1
            while end < len(indices) and indices[end] == index:
                end += 1
            top, memo = max(counts[i:end]), None
        n = _cable(index, reduced)
        ring = _as_ring(shape, n)
        if ring is None:
            value = _state_sum(shape, n, reduced)
            read = window_from_reduced if reduced else window_from_bracket
            yield read(value, count)
            continue
        if memo is None:
            memo = ColumnMemo(n, _window_digits(top, reduced))
        yield ring_window(ring, memo, count, reduced=reduced,
                          max_networks=max_networks)


def bracket_window(shape: Ring | LinkDiagram, n: int, count: int, *,
                   max_networks: int = 100_000) -> CoeffList:
    """``window_from_bracket(unreduced_colored_jones(diagram, n).value,
    count)``, computed as a truncated series when ``shape`` is a ``Ring``
    or has a ring layout: a family of one (``family_windows``)."""
    return next(family_windows([shape], [n], [count],
                               max_networks=max_networks))


def reduced_window(shape: Ring | LinkDiagram, N: int, count: int, *,
                   max_networks: int = 100_000) -> CoeffList:
    """``window_from_reduced(reduced_jones(diagram, N), count)``, computed
    as a truncated series as ``bracket_window`` is."""
    return next(family_windows([shape], [N], [count], reduced=True,
                               max_networks=max_networks))


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
    """Probe network value: the lowest-labeled region with crossings
    becomes one channel.

    The designated region's crossings are dropped in favor of a single
    (n, n, 2p) channel with 0 <= p < n; every other column keeps its
    crossings as the clasped column ff S^k that ``colored_state_sum``
    builds, which equals ff followed by k negative cabled crossings, and
    a zero column is ff alone.  ``close_ring`` closes the columns exactly
    as the diagram's ring does.
    """
    if n < 1:
        raise ValueError(f"cable color must be >= 1, got {n}")
    if not 0 <= p < n:
        raise ValueError(f"channel color must satisfy 0 <= p < {n}, got {p}")
    if diagram.free_loops:
        raise LayoutError("free loops do not fit in a probe network")
    ring, _ = _ring_layout(diagram)  # the target is the first column
    columns = [channel_element(n, p)]
    columns += [_clasped_column(n, k) for k in ring.counts[1:]]
    return close_ring(columns)
