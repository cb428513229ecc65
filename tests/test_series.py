"""Windows computed as truncated q-series, against the full polynomial.

``bracket_window`` and ``reduced_window`` must give exactly the window
(coefficients, units and anchor) that the full-polynomial path gives, on
every diagram: ring layouts through the series, everything else through
the state sums.  Euler's product checks the color-locked rows, and the
closed-form tails rings of 2..7 columns, at colors the full path cannot
reach in a test.
"""

from __future__ import annotations

import ast
import itertools
import pathlib
import random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import skeinkit
from skeinkit import invariants, series
from skeinkit.algebra import (
    ExactDivisionError,
    LaurentPoly,
    _unpack_digits,
    delta,
    exact_div,
    substitute_quarter,
    twist_coeff,
)
from skeinkit.cli import _color_tail as color_tail
from skeinkit.cli import _suite_paper_tables, _suite_rate_theorems, main
from skeinkit.diagram import LinkDiagram, parse_pd, pretzel
from skeinkit.invariants import (
    BudgetError,
    Ring,
    bracket_state_sum,
    bracket_window,
    colored_state_sum,
    family_windows,
    reduced_jones,
    reduced_window,
    unreduced_colored_jones,
)
from skeinkit.series import (
    CoeffList,
    ColumnMemo,
    ring_polynomial,
    ring_window,
    window_from_bracket,
    window_from_reduced,
)
from skeinkit.stability import (
    check_bracket_rate,
    check_color_stability,
    check_colored_rate,
    family_tail,
    normalize,
    pretzel_family,
    reduced_windows,
)

HOPF_TRACE = "PD[X[1,4,2,3],X[3,2,4,1]]"
# a planar drawing whose regions do not close into a column ring
SIX_CROSSING = "PD[X[4,2,5,1],X[8,4,9,3],X[12,9,1,10],X[10,5,11,6],X[6,11,7,12],X[2,8,3,7]]"


def outcome(fn, *args):
    """The window, or the type of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def euler(count):
    """The first ``count`` coefficients of (q;q)_inf by the pentagonal
    number theorem: sum_m (-1)^m q^(m(3m-1)/2) over all integers m."""
    c = [0] * count
    m = 0
    while m * (3 * m - 1) // 2 < count:
        for e in {m * (3 * m - 1) // 2, m * (3 * m + 1) // 2}:
            if e < count:
                c[e] = (-1) ** m
        m += 1
    return c


counts = st.lists(st.integers(0, 5), min_size=1, max_size=4).filter(any)


class TestAgainstFullPath:
    @given(counts, st.integers(1, 6), st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_bracket_window(self, cs, n, count):
        d = pretzel(cs)
        want = outcome(lambda: window_from_bracket(
            unreduced_colored_jones(d, n).value, count))
        assert outcome(bracket_window, d, n, count) == want

    @given(counts, st.integers(2, 7), st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_reduced_window(self, cs, N, count):
        d = pretzel(cs)
        want = outcome(lambda: window_from_reduced(reduced_jones(d, N), count))
        assert outcome(reduced_window, d, N, count) == want

    @pytest.mark.parametrize("n", range(1, 5))
    def test_region_closed_around_the_side(self, n):
        d = parse_pd(HOPF_TRACE)
        assert (bracket_window(d, n, 9)
                == window_from_bracket(unreduced_colored_jones(d, n).value, 9))
        assert (reduced_window(d, n + 1, 5)
                == window_from_reduced(reduced_jones(d, n + 1), 5))

    def test_free_loops(self):
        d = pretzel([0, 0, 2])
        assert d.free_loops
        for n in (1, 2, 3):
            assert (bracket_window(d, n, 9)
                    == window_from_bracket(unreduced_colored_jones(d, n).value, 9))
            assert (reduced_window(d, n + 1, 5)
                    == window_from_reduced(reduced_jones(d, n + 1), 5))

    def test_shared_precision_gives_the_same_windows(self):
        # a member's window in a family with a wider window, taken at the
        # family's precision, is its window alone
        d = pretzel([2, 5, 3])
        want = reduced_window(d, 4, 4)
        for top in (0, 4, 6, 20):
            got = list(family_windows([d, d], [4, 4], [4, top], reduced=True))
            assert got[0] == want
        want = bracket_window(d, 3, 9)
        for top in (0, 9, 30):
            assert next(family_windows([d, d], [3, 3], [9, top])) == want


class TestOneColumn:
    # a ring of one column of k crossings is an unknot with k curls: its
    # curl monomial times a loop, taken in one sum whose digit 0 is the
    # bracket's lowest coefficient; the oracles are the state sums, which
    # share nothing with the fold
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_curl_times_a_loop_in_one_sum(self, monkeypatch, n, k):
        calls = []
        ring_digits = series._ring_digits

        def spy(*args):
            calls.append(args[-1])
            return ring_digits(*args)

        monkeypatch.setattr(series, "_ring_digits", spy)
        d = pretzel([k])
        bracket = (bracket_state_sum(d) if n == 1
                   else colored_state_sum(d, n)).value
        for loops in (0, 1):
            want = bracket * delta(n) ** loops
            ring = Ring((k,), loops)
            count = want.max_degree() - want.min_degree() + 1
            calls.clear()
            assert bracket_window(ring, n, count) == window_from_bracket(
                want, count)
            assert ring_polynomial(ring, n) == want
            assert len(calls) == 2
        reduced = substitute_quarter(exact_div(bracket, delta(n)))
        ring = Ring((k,), 0)
        calls.clear()
        assert reduced_window(ring, n + 1, 5) == window_from_reduced(reduced, 5)
        assert ring_polynomial(ring, n, reduced=True) == reduced
        assert len(calls) == 2


class TestNominalBottom:
    def test_every_shape_starts_at_its_nominal_bottom(self):
        # rings of 1-5 columns with counts 0..4 (0..3 at five columns), a
        # column closed around its side among them, at five colors, with a
        # free loop and with one taken out: digit 0 of every sum is the
        # bracket's lowest coefficient, +-1
        shapes = [cs for r in range(1, 6)
                  for cs in itertools.product(range(5 if r < 5 else 4),
                                              repeat=r)]
        for n in (1, 2, 3, 4, 6):
            memo = ColumnMemo(n, 1)
            for loops in (0, -1):
                for cs in shapes:
                    _, out = series._ring_digits(memo, cs, loops, 100_000, 1)
                    assert out[0] in (1, -1), (cs, n, loops)

    def test_a_vanishing_bottom_is_a_convention_bug(self, monkeypatch):
        # every weight with its lowest digit zeroed: the ring sum's digit
        # 0 vanishes, which the window and the full polynomial refuse
        weight = ColumnMemo.weight

        def cut(self, q, p):
            return [0] + weight(self, q, p)[1:]

        monkeypatch.setattr(ColumnMemo, "weight", cut)
        ring = Ring((2, 3, 1), 0)
        with pytest.raises(ExactDivisionError, match="convention bug"):
            ring_window(ring, ColumnMemo(2, 4), 4, reduced=True)
        with pytest.raises(ExactDivisionError, match="convention bug"):
            ring_polynomial(ring, 2)


def exit_scan(n, columns):
    """The nominal lowest A-exponent of each exit of a ring of nonzero
    columns, every channel of every column and every exit scanned."""
    mus = [next(iter(twist_coeff(n, n, 2 * p).terms)) for p in range(n + 1)]
    return [-4 * q + sum(min(series._nominal(n, q, p) + e * k
                             for p, e in enumerate(mus)) for k in columns)
            for q in range(n + 1)]


class TestExitPlan:
    # exit q of a ring of r >= 2 nonzero columns starts r q(q+1)/2 - q
    # digits above exit 0 (``series._plan``); the references scan every
    # exit and every channel
    def test_nominal_closed_forms(self):
        nominal = series._nominal
        assert not [(n, q) for n in range(201) for q in range(n + 1)
                    if nominal(n, q, n) != 2 * q * q + 2 * q - 2 * n
                    or nominal(n, q, 0) != 2 * n]

    @pytest.mark.parametrize("n", range(1, 61))
    def test_plan_and_span_are_the_full_scan(self, n):
        rng = random.Random(n)
        for r in range(2, 8):
            cs = tuple(rng.randint(1, 9) for _ in range(r))
            lows = exit_scan(n, cs)
            base = min(lows)
            for digits in (1, 9, 60):
                memo = ColumnMemo(n, digits)
                plan = series._plan(memo, range(n + 1), cs, 10 ** 9)
                want = [(q, (low - base) // 4) for q, low in enumerate(lows)
                        if low - base < 4 * digits]
                assert [(q, at) for q, at, _, _ in plan] == want, (cs, digits)
            top = -min(exit_scan(n, [-k for k in cs]))
            assert series._span(n, cs, 0) == (base, top), cs

    def test_a_window_walks_only_the_exits_it_sums(self, monkeypatch):
        # the published 2,5,k row at index 201: at(11) = 187 and at(12) =
        # 222, so exits 0..11 of 201 start below its 201 digits
        walked = set()
        column = ColumnMemo.column

        def spy(self, q, k, m):
            walked.add(q)
            return column(self, q, k, m)

        monkeypatch.setattr(ColumnMemo, "column", spy)
        w = reduced_window(Ring((2, 5, 200), 0), 201, 201)
        assert walked == set(range(12))
        assert list(normalize(w).coeffs) == euler(201)

    def test_negative_color_is_refused(self):
        with pytest.raises(ValueError, match="color must be nonnegative"):
            ColumnMemo(-1, 4)
        with pytest.raises(ValueError, match="color must be nonnegative"):
            ring_polynomial(Ring((2, 3), 0), -1)
        assert ring_polynomial(Ring((2, 3), 0), 0) == LaurentPoly.one()

    def test_a_window_longer_than_the_memo_is_refused(self):
        ring = Ring((2, 3, 1), 0)
        assert ring_window(ring, ColumnMemo(2, 4), 4, reduced=True)
        with pytest.raises(ValueError, match="needs 5 digits"):
            ring_window(ring, ColumnMemo(2, 4), 5, reduced=True)

    @pytest.mark.parametrize("reduced", [False, True])
    def test_a_negative_count_is_refused(self, reduced):
        # as window_from_bracket and window_from_reduced refuse it
        with pytest.raises(ValueError, match="must be nonnegative"):
            ring_window(Ring((2, 3, 1), 0), ColumnMemo(2, 4), -1,
                        reduced=reduced)


class TestColorTails:
    # the lowest n+1 coefficients at index n+1 of a ring of r columns
    # depend on r alone (Armond-Dasbach: its reduced graph is the r-cycle)
    @given(st.integers(2, 7).flatmap(
        lambda r: st.lists(st.integers(1, 7), min_size=r, max_size=r)),
        st.integers(1, 60))
    @settings(max_examples=80, deadline=None)
    def test_ring_tail_is_its_closed_form(self, cs, n):
        w = reduced_window(Ring(cs, 0), n + 1, n + 1)
        assert list(normalize(w).coeffs) == color_tail(len(cs), n + 1)

    @pytest.mark.parametrize("r", [5, 6])
    def test_at_index_201(self, r):
        w = reduced_window(Ring(tuple(range(1, r + 1)), 0), 201, 201)
        assert list(normalize(w).coeffs) == color_tail(r, 201)

    def test_verify_check_fails_on_a_flipped_weight(self, monkeypatch):
        (name, check), = [c for c in _suite_paper_tables() if "tails" in c[0]]
        assert check() == (True, "18 rings of 2..7 columns, colors up to 200")
        weight = ColumnMemo.weight

        def flipped(self, q, p):
            w = weight(self, q, p)
            return [-c for c in w] if (q, p) == (0, self.n) else w

        monkeypatch.setattr(ColumnMemo, "weight", flipped)
        ok, detail = check()
        assert not ok and "closed form" in detail

    @pytest.mark.parametrize("cs", [[2, 3, 2], [1, 2], [3, 1, 2, 2],
                                    [2, 2, 2, 2, 2]])
    def test_color_stability_tail(self, cs):
        # the A-unit tail of the brackets at colors 1..6 steps by q = A^4;
        # read there, it is the closed form times 1/(1 - q), the bottom of
        # the loop value delta(n) the bracket keeps
        report = check_color_stability(pretzel(cs), range(1, 7))
        tail = list(report.tail.coeffs)
        assert report.passed and len(tail) == 24
        assert not any(c for i, c in enumerate(tail) if i % 4)
        want = itertools.accumulate(color_tail(len(cs), len(tail) // 4))
        assert tail[::4] == list(want)

    def test_closed_forms(self):
        assert color_tail(2, 9) == [1] + [0] * 8
        assert color_tail(3, 40) == euler(40)
        # 1 - q + q^3 - q^6 + q^10
        assert color_tail(4, 12) == [1, -1, 0, 1, 0, 0, -1, 0, 0, 0, 1, 0]


class TestDigitWidth:
    def test_digits_hold_the_sum_at_its_l1_bound(self, monkeypatch):
        # Every weight the constant c at its nominal exponent makes
        # pretzel([2, 2]) at color 1 an all-positive ring sum (its counts
        # are even, so no channel is negated).  Each column has channel 1
        # at digit 0 and channel 0 at digit 3 on exit 0, at digit 2 on exit
        # 1, which starts one digit up: c^2 (1 + x^3)^2 + c^2 x (1 + x +
        # x^2) (1 + x^2)^2.  Its coefficients add up to the L1 bound 16c^2
        # the digit width is chosen for, and its largest is 5c^2.
        d = pretzel([2, 2])
        for bits in range(48):
            c = 1 << bits

            def weight(self, q, p, c=c):
                return [c] + [0] * (self.digits - 1)

            monkeypatch.setattr(ColumnMemo, "weight", weight)
            got = bracket_window(d, 1, 32).coeffs
            want = [0] * 32
            want[::4] = (c * c * x for x in (1, 1, 1, 5, 2, 3, 2, 1))
            assert got == tuple(want)


class TestColumnMemo:
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=5),
           st.integers(1, 4), st.integers(0, 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_shared_memo_gives_each_members_own_window(self, base, n, loops,
                                                       data):
        # members evaluated in turn with one memo equal each member
        # evaluated alone, with one or more columns growing by 0..3, in
        # parameter order or any other
        grow = data.draw(st.sets(st.integers(0, len(base) - 1), min_size=1))
        members = [Ring([c + j if i in grow else c
                                 for i, c in enumerate(base)], loops)
                   for j in data.draw(st.permutations(range(4)))]
        counts = data.draw(st.lists(st.integers(0, 8), min_size=4,
                                    max_size=4))
        for reduced, index in ((True, n + 1), (False, n)):
            shared = list(family_windows(members, [index] * 4, counts,
                                         reduced=reduced))
            alone = [next(family_windows([r, r], [index] * 2, [c, max(counts)],
                                         reduced=reduced))
                     for r, c in zip(members, counts)]
            assert shared == alone

    @given(st.lists(st.integers(0, 4), min_size=2, max_size=3),
           st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)),
                    min_size=1, max_size=3),
           st.integers(0, 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_member_takes_its_own_precision(self, base, runs, loops,
                                                 data):
        # runs of members at one color, one column changing along them,
        # with counts in any order: each window is the member's alone,
        # taken at its own count
        colors = [n for n, length in runs for _ in range(length)]
        members = [Ring([*base[:-1], base[-1] + j], loops)
                   for j in range(len(colors))]
        counts = data.draw(st.lists(st.integers(0, 12), min_size=len(colors),
                                    max_size=len(colors)))
        for reduced in (True, False):
            indices = [n + reduced for n in colors]
            shared = list(family_windows(members, indices, counts,
                                         reduced=reduced))
            alone = [next(family_windows([r], [index], [c], reduced=reduced))
                     for r, index, c in zip(members, indices, counts)]
            assert shared == alone

    def test_weights_are_built_at_the_runs_precision(self, monkeypatch):
        # a run's weights are built once, at its largest count, and a
        # color-locked member's at its own count: never at the family's
        built = []
        symmetric = series._symmetric

        def spy(n, a, b, digits):
            built.append((n, a, b, digits))
            return symmetric(n, a, b, digits)

        monkeypatch.setattr(series, "_symmetric", spy)
        members = [Ring((2, 3, k), 0) for k in range(1, 6)]
        list(family_windows(members, [4, 4, 4, 3, 3], [2, 4, 6, 3, 5],
                            reduced=True))
        assert len(built) == len({key[:3] for key in built})
        assert {(n, digits) for n, _, _, digits in built} == {(3, 6), (2, 5)}
        built.clear()
        spec = pretzel_family("2,5,k", "k+1", 1, 12)
        reduced_windows(spec, [k + 1 for k in range(1, 13)])
        assert {n for n, _, _, _ in built} == set(range(1, 13))
        assert all(digits == n + 1 for n, _, _, digits in built)

    def test_a_member_rebuilds_only_the_columns_whose_count_changed(
            self, monkeypatch):
        # one run at color 2: a record is made once per (q, k, m), those of
        # the columns of 2 and 5 crossings all with the first member, and
        # each later member makes only those of its own count k, if new;
        # each record is packed once per width
        made, members, keys = [], [], []
        ring_digits, column = series._ring_digits, ColumnMemo.column
        init = series.ColumnRecord.__init__

        class Packs(dict):
            def __setitem__(self, width, packed):
                assert width not in self
                super().__setitem__(width, packed)

        def member(memo, twists, *args):
            members.append(tuple(twists))
            return ring_digits(memo, twists, *args)

        def walk(self, q, k, m):
            keys.append((q, k, m))
            return column(self, q, k, m)

        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.packs = Packs()
            made.append((members[-1], keys[-1], self))

        monkeypatch.setattr(series, "_ring_digits", member)
        monkeypatch.setattr(ColumnMemo, "column", walk)
        monkeypatch.setattr(series.ColumnRecord, "__init__", record)
        reduced_windows(pretzel_family("2,5,k", "3", 1, 8), [9] * 8)
        assert members == [(2, 5, k) for k in range(1, 9)]
        made_keys = [key for _, key, _ in made]
        assert len(made_keys) == len(set(made_keys)) == len(set(keys))
        counts = {}
        for ring, (_, k, _), rec in made:
            counts.setdefault(ring, set()).add(k)
            assert rec.packs
        assert counts == {(2, 5, 1): {1, 2, 5},
                          **{(2, 5, k): {k} for k in (3, 4, 6, 7, 8)}}

    def test_a_column_is_packed_below_its_reach(self):
        # exit q of the published 2,5,k row at color 200 reaches m = 201 -
        # at(q) digits; each column is packed to those m digits, not 201
        memo = ColumnMemo(200, 201)
        plan = series._plan(memo, range(201), (2, 5, 200), 10**6)
        assert [rs[0].m for *_, rs in plan] == [
            201 - (3 * q * (q + 1) // 2 - q) for q in range(12)]
        for _, _, _, records in plan:
            for record in records:
                width = memo.bound(record).bit_length() // 8 + 1
                want = [0] * record.m
                for off, neg, p in record.terms:
                    w = memo.weight(record.q, p)[:record.m - off]
                    for i, c in enumerate(w):
                        want[off + i] += -c if neg else c
                packed = memo.pack(record, width)
                assert abs(packed) < 1 << (8 * width * record.m - 1)
                assert _unpack_digits(packed, record.m, width) == want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_the_loop_factor_is_a_power_of_delta(self, n):
        # read in x = A^4 from its bottom, up to the sign (-1)^(n loops)
        # that ``_ring_digits`` applies; its inverse times 1 + ... + x^n
        # is 1
        for digits in (1, n + 1, 3 * n + 2):
            memo = ColumnMemo(n, digits)
            for loops in range(4):
                want = delta(n) ** loops
                low = want.min_degree()
                assert memo.loop_factor(loops).coeffs == [
                    (-1) ** (n * loops) * want.coeff(low + 4 * i)
                    for i in range(digits)], (digits, loops)
            f, one = memo.loop_factor(-1).coeffs, [1] + [0] * (digits - 1)
            assert [sum(f[max(0, i - n):i + 1]) for i in range(digits)] == one

    def test_column_terms_are_kept_per_reach(self):
        # shrinking the second column of (0, k) at color 4 moves exit
        # channels' reach up: a column's terms below a lower reach must
        # not stand in for those below a higher one
        members = [Ring((0, k), 0) for k in (3, 2, 1, 0)]
        shared = family_windows(members, [5] * 4, [9] * 4, reduced=True)
        assert list(shared) == [reduced_window(r, 5, 9) for r in members]

    def test_memo_follows_the_color(self):
        # members at changing colors share a family's precision, each
        # color with its own memo
        ring = Ring((2, 3, 1), 0)
        colors = [1, 2, 2, 3, 1]
        got = family_windows([ring] * 5, colors, [9, 4, 12, 6, 3])
        assert list(got) == [
            next(family_windows([ring, ring], [n, n], [c, 12]))
            for n, c in zip(colors, [9, 4, 12, 6, 3])]

    def test_memo_lives_for_one_family(self, monkeypatch):
        # after one family, negated weights reach the next family: each
        # of its three column factors flips sign, and so every window
        spec = pretzel_family("2,3,k", "3", 1, 4)
        first = reduced_windows(spec, [4, 4, 4, 4])
        weight = ColumnMemo.weight

        def negated(self, q, p):
            return [-x for x in weight(self, q, p)]

        monkeypatch.setattr(ColumnMemo, "weight", negated)
        second = reduced_windows(spec, [4, 4, 4, 4])
        assert second == [CoeffList(tuple(-c for c in w.coeffs), w.units,
                                    w.anchor) for w in first]


class TestEulerProduct:
    def test_color_locked_rows(self):
        # the published 2,5,k rows at index k+1, width k+1: the first
        # k+1 coefficients of (q;q)_inf
        spec = pretzel_family("2,5,k", "k+1", 1, 29)
        windows = reduced_windows(spec, [k + 1 for k in range(1, 30)])
        for k, w in zip(range(1, 30), windows):
            assert list(normalize(w).coeffs) == euler(k + 1), k

    def test_pentagonal_numbers(self):
        assert euler(8) == [1, -1, -1, 0, 0, 1, 0, 1]


class TestConsumers:
    def test_ring_layouts_never_build_the_full_polynomial(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a window consumer built the full polynomial")

        # the fused full polynomial, and the state sums of the fallback
        monkeypatch.setattr(series, "_ring_polynomial", refuse)
        monkeypatch.setattr(invariants, "_state_sum", refuse)
        assert reduced_windows(pretzel_family("8,6,k", "2", 1, 4), [2, 3, 4, 5])
        assert check_colored_rate(pretzel_family("2,2,k", "3", 2, 4)).passed
        assert check_bracket_rate(pretzel_family("8,6,k", "2", 2, 5)).passed
        assert check_color_stability(pretzel([2, 3, 2]), (1, 2, 3)).passed
        for name, check in _suite_rate_theorems():
            assert check()[0], name

    def test_pretzel_families_build_no_diagram(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a family member was drawn as a diagram")

        monkeypatch.setattr(LinkDiagram, "_validate", refuse)
        spec = pretzel_family("0,k,2", "3", 0, 3)
        assert reduced_windows(spec, [2, 3, 4, 5])
        assert family_tail(pretzel_family("8,6,k", "2", 1, 4), "k+1").passed
        assert check_colored_rate(pretzel_family("2,2,k", "3", 2, 4)).passed
        assert check_bracket_rate(pretzel_family("k,k,2", "2", 0, 3)).passed

    @pytest.mark.parametrize("fn,index", [(bracket_window, 1),
                                          (reduced_window, 2)])
    def test_one_layout_search_per_window(self, monkeypatch, fn, index):
        calls = []
        layout = invariants._ring_layout

        def counted(diagram):
            calls.append(diagram)
            return layout(diagram)

        monkeypatch.setattr(invariants, "_ring_layout", counted)
        for d in (parse_pd(SIX_CROSSING), pretzel([2, 3])):  # without, with
            calls.clear()
            fn(d, index, 4)
            assert calls == [d]

    def test_state_sum_route_without_a_ring(self):
        d = parse_pd(SIX_CROSSING)
        assert (reduced_window(d, 2, 4)
                == window_from_reduced(reduced_jones(d, 2), 4))

    def test_fusion_budget_is_the_full_paths(self):
        # a window as wide as the span plans the full path's column terms
        d = pretzel([2, 2, 1])
        with pytest.raises(BudgetError) as full:
            reduced_jones(d, 4, max_networks=10)
        with pytest.raises(BudgetError) as window:
            reduced_window(d, 4, 200, max_networks=10)
        assert str(window.value) == str(full.value)
        with pytest.raises(BudgetError) as full:
            unreduced_colored_jones(d, 3, max_networks=10)
        with pytest.raises(BudgetError) as window:
            bracket_window(d, 3, 800, max_networks=10)
        assert str(window.value) == str(full.value)

    @pytest.mark.parametrize("window,cap,terms", [("k+1", 5, 6),
                                                  ("40", 20, 27)])
    def test_family_budget_refusal_names_the_flag(self, window, cap, terms):
        # refused at the family's precision, and at each member's: the
        # first member past the cap is the same, and so is its count
        result = CliRunner().invoke(main, [
            "table", "--pretzel-family", "2,5,k", "--color", "k+1",
            "--range", "1..30", "--window", window,
            "--max-networks", str(cap)])
        assert result.exit_code == 1
        assert (f"Error: --max-networks: at least {terms} fusion column "
                f"terms exceed the configured cap of {cap}") in result.output

    def test_budget_counts_each_members_precision(self):
        # member k of the color-locked family plans its own k+1 digits,
        # not the family's 31: the cap of 20 holds every member
        spec = pretzel_family("2,5,k", "k+1", 1, 30)
        counts = [k + 1 for k in range(1, 31)]
        assert (reduced_windows(spec, counts, max_networks=20)
                == reduced_windows(spec, counts))

    @pytest.mark.parametrize("fn,index", [(bracket_window, 0),
                                          (reduced_window, 1)])
    def test_argument_errors(self, fn, index):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(pretzel([1, 1]), 2, -1)
        with pytest.raises(ValueError, match="start at index 2|must be >= 1"):
            fn(pretzel([1, 1]), index, 1)


def test_engine_imports_only_algebra():
    # the series engine stands on the arithmetic alone: no diagram, no
    # Temperley-Lieb layer, no state sum
    path = pathlib.Path(series.__file__)
    tree = ast.parse(path.read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert imported == {"algebra"}


def test_modules_use_what_they_import():
    # every name a module imports is read in it or exported by __all__;
    # the package __init__ imports only to re-export
    for path in sorted(pathlib.Path(series.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {elt.value for node in ast.walk(tree)
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        unused = sorted(set(imported) - used - exported)
        assert not unused, [f"{path.name}:{imported[n]}: {n}" for n in unused]


def test_package_exports_what_it_imports():
    # the package __init__ imports only to re-export: every name it
    # imports is in __all__, and every name in __all__ is bound
    tree = ast.parse(pathlib.Path(skeinkit.__file__).read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported == set(skeinkit.__all__)
    assert [n for n in skeinkit.__all__ if not hasattr(skeinkit, n)] == []
