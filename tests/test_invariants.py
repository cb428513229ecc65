"""Bracket pipeline tests.

The three evaluation routes (classical sweep, colored state sum,
fused channels) are checked against each other, against literal
brute-force enumerations written inline here, and against pinned
closed-form values.  Coefficient windows are always compared after
normalizing the global sign, since the pipelines keep the diagram's
framing monomial.
"""

import bisect
import collections
import functools
import itertools
import operator
import random
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinkit import algebra
from skeinkit.algebra import (
    DELTA,
    ONE,
    ZERO,
    ExactDivisionError,
    LaurentPoly,
    RationalFn,
    delta,
    exact_div,
    fusion_coeff,
    min_degree,
    substitute_quarter,
    tet,
    theta,
    twist_coeff,
)
from skeinkit.diagram import (
    LinkDiagram,
    State,
    apply_state,
    parse_pd,
    pretzel,
)
from skeinkit import invariants, planar, series, stability
from skeinkit.invariants import (
    AdequacyError,
    BudgetError,
    LayoutError,
    Ring,
    _ring_layout,
    bracket_state_sum,
    channel_probe,
    colored_bracket_fused,
    colored_state_sum,
    predicted_min_degree,
    reduced_jones,
    reduced_window,
    unreduced_colored_jones,
)
from skeinkit.stability import check_color_stability
from skeinkit.series import (
    ColumnMemo,
    _over,
    _ring_polynomial,
    _tet_terms,
    _times,
)
from skeinkit.planar import (
    channel_element,
    close_ring,
    compose,
    drum,
    jones_wenzl,
    seam_closure,
    tensor,
    turnback,
)

from plat_oracle import plat_close

HOPF_TRACE = "PD[X[1,4,2,3],X[3,2,4,1]]"
TREFOIL = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
# two trefoils summed: two columns of 3 side by side, their outer sides
# each closed on itself, the ring (3, 3, 0)
TREFOIL_SUM = "PD[X[1,4,2,5],X[3,6,4,7],X[5,2,6,3],X[7,10,8,11],X[9,12,10,1],X[11,8,12,9]]"
# a planar drawing whose regions do not close into a column ring
SIX_CROSSING = "PD[X[4,2,5,1],X[8,4,9,3],X[12,9,1,10],X[10,5,11,6],X[6,11,7,12],X[2,8,3,7]]"


def split_union(*texts):
    """The PD code of the split union of the given PD codes."""
    xs, shift = [], 0
    for text in texts:
        d = parse_pd(text)
        xs += ["X[%d,%d,%d,%d]" % tuple(a + shift for a in x)
               for x in d.crossings]
        shift += max(d.arcs())
    return "PD[" + ",".join(xs) + "]"


def rf(x):
    return x if isinstance(x, RationalFn) else RationalFn.from_poly(x)


def window(qp, count):
    """Lowest coefficients, sign-normalized so the first nonzero is +."""
    coeffs = qp.coeffs_from_bottom(count)
    for c in coeffs:
        if c:
            return [x if c > 0 else -x for x in coeffs]
    return list(coeffs)


def schoolbook_ring(diagram, n):
    """The fused ring bracket from the public closed forms, summed as
    rational functions and reduced once: sum_q delta(2q) prod_columns
    sum_p delta(2p) tet(n,n,2p,n,n,2q) / (theta_p theta_q) twist_p^k."""
    twists = _ring_layout(diagram)[0].counts
    thetas = [rf(theta(n, n, 2 * p)) for p in range(n + 1)]
    total = rf(ZERO)
    for q in range(n + 1):
        weights = [rf(delta(2 * p)) * tet(n, n, 2 * p, n, n, 2 * q)
                   / (thetas[p] * thetas[q]) for p in range(n + 1)]
        prod = rf(delta(2 * q))
        for k in twists:
            col = rf(ZERO)
            for p, weight in enumerate(weights):
                col = col + weight * twist_coeff(n, n, 2 * p) ** k
            prod = prod * col
        total = total + prod
    return total.reduce().to_poly()


def clear_weights():
    """Empty the fused evaluator's process-wide memos, so the next value is
    built from scratch (its weight series live in each evaluation's own
    ``ColumnMemo``)."""
    for memo in (series._tet_terms, series._nominal):
        memo.cache_clear()


def clear_columns():
    """Empty the clasped state sum's memoized step and columns."""
    for memo in (invariants._clasped_step, invariants._clasped_column):
        memo.cache_clear()


def brute_bracket(diagram):
    # literal 2^c enumeration, independent of the sweep order machinery
    total = ZERO
    for signs in itertools.product((+1, -1), repeat=diagram.crossing_count):
        circles = apply_state(diagram, dict(enumerate(signs)))
        total = total + (DELTA**circles).shifted(sum(signs))
    return total


class TestClassicalBracket:
    def test_empty_diagram_is_one(self):
        d = LinkDiagram(crossings=(), twist_regions=())
        assert bracket_state_sum(d).value == ONE

    def test_free_loops_multiply(self):
        d = LinkDiagram(crossings=(), twist_regions=(), free_loops=3)
        assert bracket_state_sum(d).value == DELTA**3

    def test_curl(self):
        d = parse_pd("PD[X[1,1,2,2]]")
        assert bracket_state_sum(d).value == LaurentPoly.monomial(3, -1) * DELTA

    def test_trefoil(self):
        got = bracket_state_sum(pretzel([1, 1, 1])).value
        assert got == LaurentPoly({7: 1, 3: 1, -1: 1, -9: -1})

    def test_hopf_two_drawings_agree(self):
        pinned = LaurentPoly({6: 1, 2: 1, -2: 1, -6: 1})
        assert bracket_state_sum(pretzel([1, 1])).value == pinned
        assert bracket_state_sum(parse_pd(HOPF_TRACE)).value == pinned

    def test_single_column_unknots(self):
        # k crossings in one plat-closed column: k first-move curls
        for k in (1, 2, 3, 4):
            got = bracket_state_sum(pretzel([k])).value
            assert got == LaurentPoly.monomial(3 * k, (-1) ** k) * DELTA

    @pytest.mark.parametrize(
        "build",
        [
            lambda: pretzel([2, 3, 2]),
            lambda: pretzel([4, 2]),
            lambda: pretzel([1, 1, 1, 1]),
            lambda: pretzel([2, 0, 2]),
            lambda: parse_pd(HOPF_TRACE),
            lambda: parse_pd(TREFOIL_SUM),
            lambda: parse_pd("PD[X[1,1,2,2]]"),
        ],
    )
    def test_matches_literal_enumeration(self, build):
        d = build()
        assert bracket_state_sum(d).value == brute_bracket(d)

    def test_crossing_budget(self):
        with pytest.raises(BudgetError, match="cap"):
            bracket_state_sum(pretzel([8, 8, 8]))
        assert bracket_state_sum(pretzel([8, 8, 8]), max_crossings=24).value


def record_glue_widths(monkeypatch):
    """Patch ``compose`` and ``seam_closure`` to record the width of
    every glue, the closed last seam included; returns the list."""
    widths = []

    def spy(glue):
        def recorded(f, g):
            widths.append(max(f.bot, f.top, g.top))
            return glue(f, g)
        return recorded

    monkeypatch.setattr(invariants, "compose", spy(compose))
    monkeypatch.setattr(planar, "compose", spy(compose))
    monkeypatch.setattr(planar, "seam_closure", spy(seam_closure))
    return widths


class TestColoredStateSum:
    def test_color_one_is_classical_on_any_diagram(self):
        # the clasped sum where the diagram lays out as a ring; one that
        # does not has its color-1 value from the sweep alone
        for text in (HOPF_TRACE, "PD[X[1,1,2,2]]"):
            d = parse_pd(text)
            assert colored_state_sum(d, 1).value == brute_bracket(d)
        d = parse_pd(SIX_CROSSING)
        assert unreduced_colored_jones(d, 1).value == brute_bracket(d)
        with pytest.raises(LayoutError, match="single ring"):
            colored_state_sum(d, 1)

    def test_zero_crossings(self):
        d = LinkDiagram(crossings=(), twist_regions=(), free_loops=2)
        assert colored_state_sum(d, 3).value == delta(3) ** 2

    def test_matches_per_state_enumeration(self):
        # one closed network per labeled state; the column grouping in
        # the implementation must not change the total
        d = pretzel([1, 1])
        n = 2
        ff = tensor(jones_wenzl(n), jones_wenzl(n))
        total = rf(ZERO)
        for i, j in itertools.product(range(n + 1), repeat=2):
            cols = []
            for lab in (i, j):
                cols.append(compose(compose(ff, turnback(n, lab)), ff))
            weight = fusion_coeff(n, i) * fusion_coeff(n, j)
            total = total + rf(weight) * plat_close(cols, n)
        assert total.reduce().to_poly() == colored_state_sum(d, n).value

    def test_network_budget(self):
        with pytest.raises(BudgetError, match="cap"):
            colored_state_sum(pretzel([2, 2, 2]), 2, max_networks=100)

    def test_budget_counts_compositions_at_width_2n(self, monkeypatch):
        # max(k) + r - 1 compositions of at most Catalan(2n)^2 glued pairs:
        # 5 * 132^2 = 87,120 for [3, 3, 3] at color 3, under the default
        # cap; 3 and 4 times 1430^2 for [1, 1, 1] and [2, 2, 2] at color 4,
        # refused before anything is composed
        d = pretzel([3, 3, 3])
        assert colored_state_sum(d, 3).value == colored_bracket_fused(d, 3).value

        def refuse(f, g):
            raise AssertionError("composed or closed past the budget")

        monkeypatch.setattr(invariants, "compose", refuse)
        monkeypatch.setattr(planar, "compose", refuse)
        monkeypatch.setattr(planar, "seam_closure", refuse)
        for counts, pairs in (([1, 1, 1], 6_134_700), ([2, 2, 2], 8_179_600)):
            with pytest.raises(BudgetError, match="max_networks") as exc:
                colored_state_sum(pretzel(counts), 4)
            assert str(pairs) in str(exc.value)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_clasped_column_is_the_cabled_crossing_power(self, n):
        # ff X ff = ff S (the cabled crossing expansion), so ff X^k = ff S^k
        m = tensor(jones_wenzl(n), jones_wenzl(n))
        for k in range(5):
            assert invariants._clasped_column(n, k) == m, k
            m = compose(m, planar.cabled_crossing(n, -1))

    @pytest.mark.parametrize(
        "counts", [[2, 0, 3], [2, 2], [1, 3, 1, 3], HOPF_TRACE]
    )
    def test_composes_at_width_2n_once_per_power_and_seam(self, counts,
                                                          monkeypatch):
        # n + 1 compositions build the step, one per power up to the
        # largest count (equal counts share a column), one per ring seam,
        # the last seam closed without being built; each glue is two
        # cables wide, none as wide as the ring
        n = 2
        d = parse_pd(counts) if isinstance(counts, str) else pretzel(counts)
        twists = _ring_layout(d)[0].counts
        jones_wenzl(n)  # built once and memoized; not part of the count
        clear_columns()  # the step and columns are memoized per color
        widths = record_glue_widths(monkeypatch)
        value = colored_state_sum(d, n).value
        assert len(widths) == (n + 1) + max(twists) + len(twists) - 1
        assert max(widths) == 2 * n
        monkeypatch.undo()
        assert value == colored_bracket_fused(d, n).value

    @pytest.mark.parametrize("first,second", [
        ([2, 0, 3], [3, 1, 2, 2]), ([1, 3, 1, 3], [3, 3]), ([2, 2], HOPF_TRACE),
    ])
    def test_second_diagram_composes_only_its_seams(self, first, second,
                                                    monkeypatch):
        # the first diagram builds every column the second one needs
        n = 2
        d = parse_pd(second) if isinstance(second, str) else pretzel(second)
        seams = len(_ring_layout(d)[0].counts) - 1
        clear_columns()
        colored_state_sum(pretzel(first), n)
        widths = record_glue_widths(monkeypatch)
        value = colored_state_sum(d, n).value
        assert widths == [2 * n] * seams
        monkeypatch.undo()
        assert value == colored_bracket_fused(d, n).value

    def test_unlabeled_crossing_is_refused_above_color_one(self):
        d = pretzel([1, 1, 1])
        partial = replace(d, twist_regions=d.twist_regions[:2])
        with pytest.raises(LayoutError, match="crossing"):
            colored_state_sum(partial, 2)

    def test_invalid_color(self):
        with pytest.raises(ValueError, match="color"):
            colored_state_sum(pretzel([1, 1]), 0)


class TestLiteralEnumeration:
    # diagrams whose smoothings build union-find chains three or more links
    # deep; a root search that stopped after two links miscounted one
    # circle on each
    @pytest.mark.parametrize("crossings", [
        ((5, 4, 8, 6), (11, 9, 9, 3), (7, 7, 11, 10), (12, 3, 2, 2),
         (5, 6, 12, 4), (8, 1, 1, 10)),
        ((2, 12, 10, 8), (6, 6, 8, 10), (4, 5, 7, 9), (3, 11, 2, 4),
         (5, 1, 1, 12), (11, 3, 9, 7)),
        ((9, 5, 7, 7), (12, 10, 2, 4), (3, 11, 1, 5), (10, 8, 4, 2),
         (9, 6, 11, 3), (6, 1, 12, 8)),
    ])
    def test_matches_sweep_on_deep_union_find_chains(self, crossings):
        # the chains are ``apply_state``'s union-find, which brute_bracket
        # runs once per state
        d = LinkDiagram(crossings)
        assert brute_bracket(d) == bracket_state_sum(d).value


class TestFusedChannels:
    @pytest.mark.parametrize(
        "counts",
        [[1], [2], [4], [1, 1], [3, 2], [1, 1, 1], [2, 3, 2], [2, 0, 2],
         [3, 0], [2, 2, 2, 2], [8, 6, 3]],
    )
    def test_agrees_with_classical_bracket(self, counts):
        d = pretzel(counts)
        fused = colored_bracket_fused(d, 1).value
        assert fused == bracket_state_sum(d).value

    @pytest.mark.parametrize(
        "counts", [[0, 0, 1], [0, 0, 2], [0, 0, 3], [0, 0, 0, 2], [0, 2, 0, 0]]
    )
    def test_regions_smoothed_away_leave_no_column(self, counts):
        d = pretzel(counts)
        assert any(d.sides[reg.rid] is None for reg in d.twist_regions)
        fused = {n: colored_bracket_fused(d, n).value for n in (1, 2, 3)}
        assert fused[1] == bracket_state_sum(d).value
        for n in (1, 2, 3):
            assert fused[n] == colored_state_sum(d, n).value

    def test_agrees_with_classical_bracket_on_trace_drawing(self):
        d = parse_pd(HOPF_TRACE)
        assert colored_bracket_fused(d, 1).value == bracket_state_sum(d).value

    @pytest.mark.parametrize(
        "counts", [[1, 1], [2, 1], [1, 1, 1], [2, 2, 2], [2, 0, 2], [3, 2, 1]]
    )
    def test_agrees_with_colored_state_sum(self, counts):
        d = pretzel(counts)
        assert colored_bracket_fused(d, 2).value == colored_state_sum(d, 2).value

    def test_agrees_with_colored_state_sum_color_three(self):
        for counts in ([1, 1], [2, 1]):
            d = pretzel(counts)
            assert (
                colored_bracket_fused(d, 3).value
                == colored_state_sum(d, 3).value
            )

    @pytest.mark.parametrize(
        "counts", [[1, 1, 1], [2, 2, 2], [1, 2, 3], [2, 0, 2], [1, 1, 1, 1]]
    )
    def test_agrees_with_colored_state_sum_color_three_rings(self, counts):
        d = pretzel(counts)
        assert colored_state_sum(d, 3).value == colored_bracket_fused(d, 3).value

    def test_trace_drawing_higher_color(self):
        d = parse_pd(HOPF_TRACE)
        assert colored_bracket_fused(d, 2).value == colored_state_sum(d, 2).value

    @pytest.mark.parametrize(
        "counts,n",
        [
            ([1, 1, 1], 1),
            ([2, 1], 2),
            ([2, 0, 2], 2),
            ([1, 1], 3),
            pytest.param(HOPF_TRACE, 2, id="hopf-trace-2"),
            pytest.param(HOPF_TRACE, 3, id="hopf-trace-3"),
        ],
    )
    def test_matches_literal_channel_sum(self, counts, n):
        # the closed-form evaluation must equal the literal sum of one
        # network evaluation per channel assignment
        d = parse_pd(counts) if isinstance(counts, str) else pretzel(counts)
        ring, _ = _ring_layout(d)
        twists = ring.counts
        total = rf(ZERO)
        for ps in itertools.product(range(n + 1), repeat=len(twists)):
            w = rf(ONE)
            for p, k in zip(ps, twists):
                w = w * (rf(delta(2 * p)) / rf(theta(n, n, 2 * p)))
                w = w * twist_coeff(n, n, 2 * p) ** k
            columns = [channel_element(n, p) for p in ps]
            total = total + w * close_ring(columns)
        assert total.reduce().to_poly() == colored_bracket_fused(d, n).value

    def test_needs_no_temperley_lieb_network(self, monkeypatch):
        ring, trace = pretzel([2, 3, 1]), parse_pd(HOPF_TRACE)
        want = [colored_bracket_fused(d, n).value
                for d in (ring, trace) for n in (2, 3)]

        def refuse(*args, **kwargs):
            raise AssertionError("the fused evaluator built a TL network")

        for name in ("jones_wenzl", "compose", "closure", "seam_closure",
                     "channel_element", "close_ring"):
            monkeypatch.setattr(planar, name, refuse)
            if hasattr(invariants, name):
                monkeypatch.setattr(invariants, name, refuse)
        clear_weights()
        got = [colored_bracket_fused(d, n).value
               for d in (ring, trace) for n in (2, 3)]
        assert got == want

    def test_one_tet_per_channel_pair_per_color(self):
        # the tet/theta part of a weight is symmetric in p and q, so a
        # color builds one tetrahedral term list per unordered pair
        clear_weights()
        for k in (1, 2, 3):
            colored_bracket_fused(pretzel([2, 1, k]), 3)
        assert _tet_terms.cache_info().misses == 10  # pairs of channels 0..3

    @pytest.mark.parametrize("n", range(1, 30))
    def test_closed_form_nominal_matches_the_terms(self, n):
        # the least A-shift of the tetrahedral terms, found at the vertex
        # of their quadratic, is the least of the enumerated shifts
        for q in range(n + 1):
            for p in range(n + 1):
                shifts = [s for _, s in _tet_terms(n, min(p, q), max(p, q))]
                assert series._nominal(n, q, p) == min(shifts) - 4 * p

    def test_needs_no_gcd_or_reduction(self, monkeypatch):
        diagrams = (pretzel([2, 3, 1]), pretzel([1, 1]), parse_pd(HOPF_TRACE))
        want = [colored_bracket_fused(d, n).value
                for d in diagrams for n in range(2, 6)]

        def refuse(*args, **kwargs):
            raise AssertionError("the fused evaluator reduced by a gcd")

        monkeypatch.setattr(RationalFn, "reduce", refuse)
        clear_weights()
        got = [colored_bracket_fused(d, n).value
               for d in diagrams for n in range(2, 6)]
        assert got == want

    def test_ring_path_divides_by_no_schoolbook_loop(self, monkeypatch):
        diagrams = (pretzel([2, 3, 1]), pretzel([1, 1]), pretzel([4, 2, 2, 3]),
                    pretzel([0, 0, 2]), parse_pd(HOPF_TRACE))
        want = [(colored_bracket_fused(d, n).value, reduced_jones(d, n + 1))
                for d in diagrams for n in range(1, 6)]

        def refuse(*args, **kwargs):
            raise AssertionError("the ring path ran a schoolbook division")

        for name in ("try_div", "exact_div"):
            monkeypatch.setattr(algebra, name, refuse)
            monkeypatch.setattr(invariants, name, refuse, raising=False)
        clear_weights()
        got = [(colored_bracket_fused(d, n).value, reduced_jones(d, n + 1))
               for d in diagrams for n in range(1, 6)]
        assert got == want

    @given(st.lists(st.integers(1, 12), min_size=2, max_size=5),
           st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_packed_ring_matches_schoolbook(self, counts, n):
        d = pretzel(counts)
        assert colored_bracket_fused(d, n).value == schoolbook_ring(d, n)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_packed_ring_matches_schoolbook_color_locked(self, k):
        # the published 2,5,k family at index k+1, i.e. color k
        d = pretzel([2, 5, k])
        assert colored_bracket_fused(d, k).value == schoolbook_ring(d, k)

    def test_digits_hold_the_sum_at_its_l1_bound(self, monkeypatch):
        # Channel 1's weight the constant c at its nominal exponent, and
        # every other weight 0, makes pretzel([2, 2]) at color 1 the ring
        # sum c^2 (1 + x + x^2 + x^3): c^2 at exit 0, and c^2 (1 + x + x^2)
        # at exit 1, one digit up.  Its coefficients add up to the L1 bound
        # 4c^2 the digit width is chosen for, and the span holds it whole.
        d = pretzel([2, 2])
        for bits in range(48):
            c = 1 << bits

            def weight(self, q, p, c=c):
                return [c if p == 1 else 0] + [0] * (self.digits - 1)

            monkeypatch.setattr(ColumnMemo, "weight", weight)
            got = colored_bracket_fused(d, 1).value
            low = got.min_degree()
            assert got == LaurentPoly({low + 4 * i: c * c for i in range(4)})

    def test_table_off_by_one_is_a_convention_bug(self, monkeypatch):
        # one step factor of the tetrahedral sum off by one: the weights
        # stay on the lattice of A^4, but the ring sum is no polynomial
        # and leaves a digit past the top of its span
        tet_steps = series._tet_steps

        def bumped(n, a, b, u):
            (first, *ups), downs = tet_steps(n, a, b, u)
            return (first + 1, *ups), downs

        monkeypatch.setattr(series, "_tet_steps", bumped)
        clear_weights()
        try:
            with pytest.raises(ExactDivisionError, match="convention bug"):
                colored_bracket_fused(pretzel([2, 3, 1]), 2)
        finally:
            clear_weights()

    def test_fusion_budget(self):
        with pytest.raises(BudgetError, match="fusion"):
            colored_bracket_fused(pretzel([1, 1, 1]), 3, max_networks=10)

    @pytest.mark.parametrize("counts,N", [([1] * 20, 3), ([2] * 7, 6)])
    def test_fusion_budget_accepts_cheap_wide_rings(self, counts, N):
        # the budget counts the column terms built, about r * (n+1)^2 for
        # a full polynomial, not (n+1)^r
        assert not reduced_jones(pretzel(counts), N).is_zero()

    def test_free_loops_multiply(self):
        d = pretzel([1, 1])
        loops = replace(d, free_loops=2)
        assert (
            colored_bracket_fused(loops, 2).value
            == colored_bracket_fused(d, 2).value * delta(2) ** 2
        )

    @pytest.mark.parametrize("length", [1, 2, 5, 12])
    def test_over_inverts_times(self, length):
        rng = random.Random(length)
        c = [rng.randint(-9, 9) for _ in range(length)]
        for j in range(1, length + 3):
            d = list(c)
            _times(d, j)
            _over(d, j)
            assert d == c, j
            _over(d, j)
            _times(d, j)
            assert d == c, j

    @pytest.mark.parametrize("counts", [[0], [0, 0], [0, 0, 0]])
    def test_every_region_smoothed_away_is_a_layout_error(self, counts):
        d = pretzel(counts)
        with pytest.raises(LayoutError, match="smoothed away"):
            _ring_layout(d)
        assert colored_bracket_fused(d, 2).value == delta(2) ** d.free_loops


def twist_exponents(n):
    """The A-exponent and sign of twist_coeff(n, n, 2p) for every p."""
    return [next(iter(twist_coeff(n, n, 2 * p).terms.items()))
            for p in range(n + 1)]


class TestChannelWalk:
    """``series._least`` reads a column's least exponent off its lowest
    channel, and ``ColumnMemo`` walks its terms outward from there; both
    must equal the enumeration of every channel.  Zero columns never reach
    the memo (``TestZeroColumns``), so k runs over the nonzero counts."""

    @staticmethod
    def mismatches(memo, q, ks, ms, mus):
        """The (n, q, k, m) whose pruned least or terms are not the full
        enumeration's; m None stands for the least."""
        n = memo.n
        nominals = [series._nominal(n, q, p) for p in range(n + 1)]
        bad = []
        for k in ks:
            exps = [c + e * k for c, (e, _) in zip(nominals, mus)]
            least = min(exps)
            if series._least(n, q, k) != least:
                bad.append((n, q, k, None))
            offsets = sorted([(e - least) // 4 for e in exps])
            for m in ms:
                # distinct channels, each below m with its own offset and
                # sign, as many as the channels below m: the same set
                got = memo.column(q, k, m).terms
                if not (len({p for _, _, p in got}) == len(got)
                        == bisect.bisect_left(offsets, m)
                        and all(off == (exps[p] - least) // 4 < m
                                and neg == (mus[p][1] < 0 and k % 2 == 1)
                                for off, neg, p in got)):
                    bad.append((n, q, k, m))
        return bad

    @pytest.mark.parametrize("n", range(60))
    def test_walk_is_the_full_enumeration(self, n):
        memo, mus = ColumnMemo(n, 1), twist_exponents(n)
        ks = [k for k in range(-60, 61) if k]
        assert not [bad for q in range(n + 1)
                    for bad in self.mismatches(memo, q, ks, (1, 9, 40), mus)]

    @given(st.integers(1, 400), st.data())
    @settings(max_examples=60, deadline=None)
    def test_walk_at_high_color(self, n, data):
        q = data.draw(st.integers(0, n))
        k = data.draw(st.integers(-400, 400).filter(bool))
        ms = data.draw(st.lists(st.integers(1, 4 * n * n + 10), min_size=1,
                                max_size=3))
        assert not self.mismatches(ColumnMemo(n, 1), q, [k], ms,
                                   twist_exponents(n))

    @pytest.mark.parametrize("n", range(1, 151, 7))
    def test_adjacent_nominals_differ_within_the_bound(self, n):
        # the bound the walk rests on: -4(p+1) <= step <= 4p
        nominal = series._nominal
        assert not [(q, p) for q in range(n + 1) for p in range(n)
                    if not -4 * (p + 1) <= nominal(n, q, p + 1)
                    - nominal(n, q, p) <= 4 * p]

    @pytest.mark.parametrize("n", range(60))
    def test_twist_monomials_are_the_closed_form(self, n):
        assert ColumnMemo(n, 1)._mus == twist_exponents(n)

    def test_full_polynomials_leave_no_weights_behind(self):
        # each full polynomial builds its weights in its own memo, so
        # nothing of them is held once it returns (k = 8, 9 held 4.1 MB
        # when the weights were memoized per precision for the process)
        d = [pretzel([2, 5, k]) for k in range(8, 10)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k, member in zip(range(8, 10), d):
                reduced_jones(member, k + 1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1 << 20

    def test_full_polynomials_share_weights_inside_shared_memos(self,
                                                                monkeypatch):
        # inside the block each color keeps the memo of its longest span so
        # far: a shorter span reuses it and a longer one replaces it.  The
        # spans of 2,5,k grow with k.  Each value is the polynomial's
        # alone, and no memo is left once the block ends.
        keys = [(k, N) for k in (2, 3, 4) for N in (2, 3)]
        alone = {(k, N): reduced_jones(pretzel([2, 5, k]), N) for k, N in keys}
        made = []
        init = ColumnMemo.__init__

        def counting(self, n, digits):
            made.append((n, digits))
            init(self, n, digits)

        def shared(order):
            made.clear()
            with series.shared_memos():
                for _ in range(2):
                    assert {(k, N): reduced_jones(pretzel([2, 5, k]), N)
                            for k, N in order} == alone
            return {n: [d for c, d in made if c == n] for n in (1, 2)}

        monkeypatch.setattr(ColumnMemo, "__init__", counting)
        longest_first = shared(keys[::-1])
        assert [len(ds) for ds in longest_first.values()] == [1, 1]
        shortest_first = shared(keys)
        for n, ds in shortest_first.items():
            assert len(ds) == 3 and ds == sorted(set(ds))
            assert ds[-1] == longest_first[n][0]
        assert series._SHARED.get() is None
        made.clear()
        reduced_jones(pretzel([2, 5, 2]), 2)
        reduced_jones(pretzel([2, 5, 2]), 2)
        assert [n for n, _ in made] == [1, 1]


def channel_scan(memo, q):
    """sum_p c[q][p] over every channel at the memo's color, modulo x^digits
    above the least nominal exponent, at the memo's digits: the A-exponent
    it is exact below, and the sum."""
    n, digits = memo.n, memo.digits
    lows = [series._nominal(n, q, p) for p in range(n + 1)]
    low = min(lows)
    total = collections.Counter()
    for p, e in enumerate(lows):
        off = (e - low) // 4
        for i, c in enumerate(memo.weight(q, p)[:max(0, digits - off)]):
            total[e + 4 * i] += c
    return low + 4 * digits, LaurentPoly(dict(total))


class TestZeroColumns:
    """A column of 0 crossings is the identity on its two cables, which the
    ring sum folds into a loop (``series._fold``)."""

    @pytest.mark.parametrize("n", range(1, 16))
    def test_fusion_identity(self, n):
        # sum_p c[q][p] = delta(n) at q = 0 and 0 at q >= 1, every channel
        # scanned
        memo = ColumnMemo(n, 4 * n * n + 8 * n + 8)
        for q in range(n + 1):
            want = delta(n) if q == 0 else ZERO
            end, got = channel_scan(memo, q)
            assert got == LaurentPoly({e: c for e, c in want.terms.items()
                                       if e < end}), q

    @pytest.mark.parametrize("n", range(1, 7))
    def test_connected_sum(self, n):
        # a ring with one zero column is the connected sum of the traces
        # of its other columns: delta(n)^(L+2-r) prod_k trace(k)
        for ks in itertools.chain.from_iterable(
                itertools.product((1, 2, 3, 5), repeat=j) for j in (1, 2, 3)):
            traces = [_ring_polynomial(n, (k, 0), 0) for k in ks]
            for loops in (0, 1):
                e = loops + 1 - len(ks)
                got = _ring_polynomial(n, (0, *ks), loops)
                want = functools.reduce(operator.mul, traces)
                assert (got * delta(n) ** max(0, -e)
                        == want * delta(n) ** max(0, e)), (ks, loops)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_trace_of_a_zero_column_is_two_loops(self, n):
        for loops in range(3):
            assert (_ring_polynomial(n, (0, 0), loops)
                    == delta(n) ** (loops + 2))
            assert (reduced_jones(Ring((0, 0), loops), n + 1)
                    == substitute_quarter(delta(n) ** (loops + 1)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_side_closure_is_its_closed_form(self, n):
        # a column of k crossings closed around its side, the ring (k, 0),
        # is sum_p delta(2p) twist_p^k, times delta(n)^L; the reference
        # is built from the algebra alone
        for k in range(9):
            side = sum((delta(2 * p) * twist_coeff(n, n, 2 * p) ** k
                        for p in range(n + 1)), ZERO)
            assert (_ring_polynomial(n, (k, 0), -1)
                    == exact_div(side, delta(n))), k
            for loops in range(3):
                assert (_ring_polynomial(n, (k, 0), loops)
                        == side * delta(n) ** loops), (k, loops)

    def test_zero_column_scans_no_channel(self):
        # the zero column's place in the ring changes no window
        series._nominal.cache_clear()
        got = reduced_window(Ring((0, 5, 300), 0), 301, 10)
        assert series._nominal.cache_info().misses <= 400
        for counts in ((5, 0, 300), (5, 300, 0)):
            assert reduced_window(Ring(counts, 0), 301, 10) == got


class TestRing:
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_bracket_matches_the_pretzel(self, counts):
        # values, not Ring objects: a pretzel with a run of zero columns
        # lays out with one zero column and more free loops
        d = pretzel(counts)
        want = bracket_state_sum(d, max_crossings=30).value
        assert _ring_polynomial(1, counts, 0) == want
        for n in (2, 3):
            want = colored_bracket_fused(d, n).value
            assert _ring_polynomial(n, counts, 0) == want

    def test_anonymous_zero_columns_lay_out_as_free_loops(self):
        d = pretzel([0, 0, 1])
        assert _ring_layout(d) == (Ring((1, 0), 1), (3, None))
        assert (_ring_polynomial(2, (0, 0, 1), 0)
                == colored_bracket_fused(d, 2).value)

    def test_every_small_pretzel_lays_out(self):
        # 1-4 columns of 0..3 crossings, at least one crossing in all
        for r in range(1, 5):
            for counts in itertools.product(range(4), repeat=r):
                if not any(counts):
                    continue
                d = pretzel(counts)
                got = colored_bracket_fused(d, 1).value
                assert got == _ring_polynomial(1, counts, 0), counts
                assert got == bracket_state_sum(d).value, counts
                if 0 in counts:
                    assert (colored_bracket_fused(d, 2)
                            == colored_state_sum(d, 2)), counts

    @pytest.mark.parametrize("counts", [(0, 0, 2, 2), (0, 2, 0, 3),
                                        (0, 0, 0, 1, 2), (3, 0, 1, 0, 0)])
    def test_rotations_share_a_bracket(self, counts):
        want = bracket_state_sum(pretzel(counts)).value
        for i in range(1, len(counts)):
            d = pretzel(counts[i:] + counts[:i])
            assert bracket_state_sum(d).value == want
            assert colored_bracket_fused(d, 1).value == want

    @pytest.mark.parametrize("args,match", [
        (((), 0), "at least one column"),
        (((2, -1), 0), "nonnegative"),
        (((1,), -1), "free loops"),
    ])
    def test_refused(self, args, match):
        with pytest.raises(ValueError, match=match):
            Ring(*args)

    @pytest.mark.parametrize("args", [((2.0, 3, 1), 0),
                                      ((2, 3), 1.0),
                                      (("2",), 0),
                                      ((2, True), 0),
                                      ((2,), False)])
    def test_non_int_counts_and_loops_refused(self, args):
        with pytest.raises(TypeError, match="must be ints"):
            Ring(*args)

    def test_counts_become_a_tuple(self):
        assert Ring([2, 0], 0) == Ring((2, 0), 0)


class TestClosedSides:
    """A column side that is one arc closing on itself has a zero column
    beside it, which ``_ring_layout`` reads from the arcs alone."""

    @pytest.mark.parametrize("seed", range(3))
    def test_bare_pd_codes_of_pretzels(self, seed):
        # 1-4 columns of 0..3 crossings, a crossing and a zero column in
        # each; the PD code keeps no zero region, its crossings shuffled
        # and some read from their other under-slot
        rng = random.Random(seed)
        shapes = 0
        for r in range(1, 5):
            for counts in itertools.product(range(4), repeat=r):
                if not any(counts) or 0 not in counts:
                    continue
                d = pretzel(counts)
                crossings = [x[2:] + x[:2] if rng.random() < 0.5 else x
                             for x in d.crossings]
                rng.shuffle(crossings)
                text = "PD[" + ",".join("X[%d,%d,%d,%d]" % x
                                        for x in crossings) + "]"
                bare = replace(parse_pd(text), free_loops=d.free_loops)
                _ring_layout(bare)
                for n in (1, 2, 3):
                    assert (unreduced_colored_jones(bare, n).value
                            == unreduced_colored_jones(d, n).value), (counts, n)
                assert (bracket_state_sum(bare).value
                        == unreduced_colored_jones(d, 1).value), counts
                shapes += 1
        assert shapes == 216

    def test_trefoil_sum_is_a_connected_sum(self):
        # the bracket is multiplicative under connected sum, over one loop
        total, trefoil = parse_pd(TREFOIL_SUM), parse_pd(TREFOIL)
        assert (unreduced_colored_jones(trefoil, 1).value
                == bracket_state_sum(trefoil).value)
        assert (unreduced_colored_jones(total, 1).value
                == bracket_state_sum(total).value)
        for n in (1, 2, 3):
            got = unreduced_colored_jones(total, n).value
            assert (got * delta(n)
                    == unreduced_colored_jones(trefoil, n).value ** 2), n
            assert colored_state_sum(total, n).value == got, n

    def test_split_union_is_a_product(self):
        # two columns each closed on both sides: two runs, two zero columns
        d = parse_pd(split_union(TREFOIL, TREFOIL))
        assert _ring_layout(d) == (Ring((3, 0, 3, 0), 0), (1, None, 2, None))
        trefoil = parse_pd(TREFOIL)
        assert bracket_state_sum(d).value == bracket_state_sum(trefoil).value ** 2
        for n in (1, 2, 3):
            assert (unreduced_colored_jones(d, n).value
                    == unreduced_colored_jones(trefoil, n).value ** 2), n

    def test_six_crossing_has_no_ring_layout(self):
        d = parse_pd(SIX_CROSSING)  # parse_pd refuses a code that is not planar
        with pytest.raises(LayoutError, match="single ring"):
            _ring_layout(d)

    def test_a_split_union_is_refused_in_one_walk(self):
        d = parse_pd(split_union(*[TREFOIL] * 10, SIX_CROSSING))
        start = time.perf_counter()
        with pytest.raises(LayoutError, match="single ring"):
            _ring_layout(d)
        assert time.perf_counter() - start < 0.1


class TestHighColorOracle:
    """Closed forms of colored unknots and the Hopf link, up to color 8.

    These check the fused ring path at full span precision, at colors
    where no network oracle is affordable.
    """

    @pytest.mark.parametrize("n", range(1, 9))
    def test_hopf_link_is_a_quantum_integer(self, n):
        # [(n+1)^2] = (A^(2(n+1)^2) - A^(-2(n+1)^2)) / (A^2 - A^(-2))
        m = (n + 1) ** 2
        want = exact_div(LaurentPoly({2 * m: 1, -2 * m: -1}),
                         LaurentPoly({2: 1, -2: -1}))
        assert colored_bracket_fused(pretzel([1, 1]), n).value == want

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("k", [1, 2])
    def test_kinked_unknot_is_a_framed_loop(self, n, k):
        # each kink multiplies the loop value by (-1)^n A^(n(n+2))
        want = LaurentPoly.monomial(k * n * (n + 2), (-1) ** (n * k)) * delta(n)
        assert colored_bracket_fused(pretzel([k]), n).value == want


class TestRouting:
    def test_zero_crossing_diagram(self):
        d = LinkDiagram(crossings=(), twist_regions=(), free_loops=1)
        assert unreduced_colored_jones(d, 4).value == delta(4)

    def test_partial_labels_fall_back_at_color_one(self):
        d = pretzel([1, 1, 1])
        partial = replace(d, twist_regions=d.twist_regions[:2])
        got = unreduced_colored_jones(partial, 1).value
        assert got == bracket_state_sum(d).value

    def test_partial_labels_refused_above_color_one(self):
        d = pretzel([1, 1, 1])
        partial = replace(d, twist_regions=d.twist_regions[:2])
        with pytest.raises(LayoutError):
            unreduced_colored_jones(partial, 2)

    @pytest.mark.parametrize("run", [
        lambda d: unreduced_colored_jones(d, 2),
        lambda d: reduced_window(d, 3, 4),
        lambda d: check_color_stability(d, (1, 2)),
    ], ids=["unreduced_colored_jones", "reduced_window",
            "check_color_stability"])
    def test_no_layout_above_color_one_is_one_search(self, monkeypatch, run):
        # the router's one search raises; nothing is composed
        d = parse_pd(SIX_CROSSING)
        searches = []
        layout = invariants._ring_layout

        def counted(diagram):
            searches.append(diagram)
            return layout(diagram)

        def refuse(f, g):
            raise AssertionError("composed without a ring layout")

        for module in (invariants, stability):
            monkeypatch.setattr(module, "_ring_layout", counted)
        monkeypatch.setattr(invariants, "compose", refuse)
        monkeypatch.setattr(planar, "compose", refuse)
        with pytest.raises(LayoutError, match="ring layout"):
            run(d)
        assert searches == [d]

    def test_layout_styles_detected(self):
        # a region closed on itself is a ring of one column, and one closed
        # around its side the ring of it and a zero column
        assert _ring_layout(pretzel([2])) == (Ring((2,), 0), (1,))
        assert _ring_layout(pretzel([2, 3, 2])) == (Ring((2, 3, 2), 0),
                                                    (1, 2, 3))
        assert _ring_layout(parse_pd(HOPF_TRACE)) == (Ring((2, 0), 0),
                                                      (1, None))
        assert _ring_layout(parse_pd(TREFOIL_SUM)) == (Ring((3, 3, 0), 0),
                                                       (1, 2, None))


class TestReducedWindows:
    def test_unknot(self):
        d = LinkDiagram(crossings=(), twist_regions=(), free_loops=1)
        for N in (2, 3, 5):
            assert window(reduced_jones(d, N), 1) == [1]

    def test_family_8_6_k_low_members(self):
        rows = {1: [1, -1], 2: [1, -1, 3], 3: [1, -1, 3, -4]}
        for k, row in rows.items():
            got = window(reduced_jones(pretzel([8, 6, k]), 2), k + 1)
            assert got == row

    def test_family_k_k_2_low_members(self):
        rows = {2: [1, -1, 3], 3: [1, -1, 3, -3], 4: [1, -1, 3, -3, 5]}
        for k, row in rows.items():
            got = window(reduced_jones(pretzel([k, k, 2]), 2), k + 1)
            assert got == row

    def test_growing_family_color_three(self):
        rows = {
            1: [1, -1, -1, 0],
            2: [1, -1, -1, 0, 4, 0, -4],
        }
        for k, row in rows.items():
            d = pretzel([k + 2, k + 4, k + 1])
            assert window(reduced_jones(d, 4), 3 * k + 1) == row

    def test_color_locked_family(self):
        # cable color grows with the twisting: member k at color k
        rows = {2: [1, -1, -1], 5: [1, -1, -1, 0, 0, 1]}
        for k, row in rows.items():
            d = pretzel([2, 5, k])
            assert window(reduced_jones(d, k + 1), k + 1) == row

    def test_reduced_index_starts_at_two(self):
        with pytest.raises(ValueError, match="index 2"):
            reduced_jones(pretzel([1, 1]), 1)

    def test_framing_monomial_invisible_in_windows(self):
        d = pretzel([2, 3, 2])
        ub = unreduced_colored_jones(d, 2).value
        base = window(substitute_quarter(exact_div(ub, delta(2))), 5)
        rng = random.Random(11)
        for _ in range(6):
            fake = ub.shifted(rng.randint(-9, 9)).scaled(rng.choice((1, -1)))
            got = window(substitute_quarter(exact_div(fake, delta(2))), 5)
            assert got == base


class TestMinimumDegrees:
    ADEQUATE = [
        [1, 1], [1, 1, 1], [2, 2], [3, 3], [2, 2, 2], [2, 3, 2],
        [8, 6, 1], [2, 1, 2], [1, 2, 3], [2, 2, 2, 2],
    ]

    @pytest.mark.parametrize("counts", ADEQUATE)
    def test_classical_closed_form(self, counts):
        d = pretzel(counts)
        got = min_degree(bracket_state_sum(d).value)
        assert got == predicted_min_degree(d, 1)

    def test_classical_closed_form_on_trace_drawing(self):
        d = parse_pd(HOPF_TRACE)
        assert min_degree(bracket_state_sum(d).value) == predicted_min_degree(d, 1)

    @pytest.mark.parametrize("counts", [[1, 1], [2, 2], [1, 1, 1], [2, 3, 2], [2, 2, 2]])
    def test_colored_closed_form(self, counts):
        d = pretzel(counts)
        for n in (1, 2, 3):
            got = min_degree(unreduced_colored_jones(d, n).value)
            assert got == predicted_min_degree(d, n)

    def test_formula_value(self):
        d = pretzel([2, 3, 2])
        s = apply_state(d, State.all_minus(d))
        assert predicted_min_degree(d, 2) == -7 * 4 - 4 * s

    def test_zero_crossing_diagram(self):
        d = LinkDiagram(crossings=(), twist_regions=(), free_loops=2)
        for n in (1, 2):
            assert predicted_min_degree(d, n) == -4 * n
            assert min_degree(unreduced_colored_jones(d, n).value) == -4 * n

    def test_curl_refused(self):
        curl = parse_pd("PD[X[1,1,2,2]]")
        with pytest.raises(AdequacyError):
            predicted_min_degree(curl, 1)
        with pytest.raises(AdequacyError):
            predicted_min_degree(curl, 2)

    def test_non_alternating_refused_above_color_one(self):
        d = parse_pd("PD[X[1,2,3,4],X[1,4,3,2]]")
        with pytest.raises(AdequacyError, match="alternating"):
            predicted_min_degree(d, 2)

    def test_nearly_minimal_states_stay_above(self):
        # flipping one crossing of the all-negative state can raise the
        # bracket's minimum degree by at most 2 + 2n at color 1
        d = pretzel([2, 3, 2])
        floor = predicted_min_degree(d, 1)
        for cid in range(d.crossing_count):
            signs = {i: -1 for i in range(d.crossing_count)}
            signs[cid] = +1
            circles = apply_state(d, signs)
            degree = (2 - d.crossing_count) - 2 * circles
            assert degree >= floor
            assert degree <= floor + 4


class TestChannelProbe:
    @pytest.mark.parametrize("counts", [[1, 1, 1], [2, 2, 2], [2, 3, 2], [3, 3, 3]])
    def test_minimum_degree_formula(self, counts):
        d = pretzel(counts)
        c = d.crossing_count
        s = apply_state(d, State.all_minus(d))
        for n in (1, 2):
            for p in range(n):
                got = min_degree(channel_probe(d, n, p))
                assert got == -n * n * (c - counts[0]) - 2 * (s * n - (n - p))

    def test_four_column_diagram(self):
        d = pretzel([4, 3, 2, 3])
        s = apply_state(d, State.all_minus(d))
        assert s == 4
        for n, p in ((1, 0), (2, 0), (2, 1)):
            got = min_degree(channel_probe(d, n, p))
            assert got == -n * n * (12 - 4) - 2 * (s * n - (n - p))

    def test_two_column_cancellation(self):
        # with only one other region, both cables of the replaced
        # region feed the same channel; the bottom terms cancel and
        # the closed form above does not apply
        d = pretzel([3, 2])
        got = channel_probe(d, 1, 0).to_poly()
        assert got == LaurentPoly({8: -1, 4: -1})
        assert min_degree(got) == 4  # the formula would say -4

    def test_channel_color_bounds(self):
        d = pretzel([1, 1, 1])
        with pytest.raises(ValueError, match="channel"):
            channel_probe(d, 2, 2)
        with pytest.raises(ValueError, match="channel"):
            channel_probe(d, 2, -1)

    def test_zero_region_is_not_the_target(self):
        # the target is the lowest-labeled region with crossings, and the
        # zero column stays in the ring
        for n in (1, 2, 3):
            for p in range(n):
                assert (channel_probe(pretzel([0, 2, 3]), n, p)
                        == channel_probe(pretzel([2, 0, 3]), n, p)), (n, p)

    def test_free_loops_refused(self):
        d = replace(pretzel([1, 1, 1]), free_loops=1)
        with pytest.raises(LayoutError, match="loops"):
            channel_probe(d, 1, 0)


class TestChannelDegreeSteps:
    def test_twist_weight_steps(self):
        # lowering the channel by one costs exactly 4j in the twist
        # weight's minimum degree
        for n in range(1, 5):
            for j in range(1, n + 1):
                now = min_degree(twist_coeff(n, n, 2 * j))
                before = min_degree(twist_coeff(n, n, 2 * (j - 1)))
                assert now - before == -4 * j

    def test_top_twist_weight_is_pure_framing(self):
        for n in range(1, 5):
            assert twist_coeff(n, n, 2 * n) == LaurentPoly.monomial(-n * n, 1)

    def test_fusion_weight_steps(self):
        for n in range(1, 5):
            for j in range(1, n + 1):
                now = min_degree(rf(delta(2 * j)) / rf(theta(n, n, 2 * j)))
                before = min_degree(
                    rf(delta(2 * (j - 1))) / rf(theta(n, n, 2 * (j - 1)))
                )
                assert now - before == -2

    def test_top_fusion_weight_is_one(self):
        for n in range(1, 5):
            assert rf(delta(2 * n)) == rf(theta(n, n, 2 * n)).reduce()

    def test_network_rung_steps_are_not_always_two(self):
        # recoloring one rung of a closed ring network by one step
        # usually moves the minimum degree by 2, but not always; these
        # pinned values document a single-step jump of 6
        assert min_degree(drum(2, [2, 2, 2])) == -10
        assert min_degree(drum(2, [2, 2, 4])) == -4
        assert min_degree(drum(2, [2, 4, 4])) == -10
        assert min_degree(drum(2, [4, 4, 4])) == -12
