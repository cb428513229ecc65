"""Window calculus and rate checker tests.

The rate checks pin exact agreement depths, not just the claimed bounds:
on every probed family the measured stable prefix lands precisely on the
theorem's rate, so ``verified == required`` is asserted where that held.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinkit.diagram import DiagramError, parse_pd, pretzel
from skeinkit.invariants import (
    BudgetError,
    LayoutError,
    Ring,
    reduced_jones,
    unreduced_colored_jones,
)
from skeinkit.invariants import reduced_window as series_window
from skeinkit.stability import (
    CoeffList,
    ExpressionError,
    FamilyExpr,
    FamilySpec,
    MemberError,
    WindowError,
    check_bracket_rate,
    check_color_stability,
    check_colored_rate,
    family_tail,
    n_equivalent,
    normalize,
    pretzel_family,
    reduced_windows,
    stable_prefix,
    window_from_bracket,
    window_from_reduced,
)


def reduced_window(counts, color, length):
    return window_from_reduced(reduced_jones(pretzel(counts), color), length)


def bracket_window(counts, cable, length):
    value = unreduced_colored_jones(pretzel(counts), cable).value
    return window_from_bracket(value, length)


# lists whose head coefficient is nonzero
heads = st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0)
tails = st.lists(st.integers(min_value=-9, max_value=9), max_size=8)


class TestNormalize:
    def test_flips_global_sign(self):
        c = CoeffList((-1, 4, 0, 0, -6))
        out = normalize(c)
        assert out.coeffs == (1, -4, 0, 0, 6)
        assert out.normalized
        assert out.anchor == Fraction(0)

    def test_already_normal_unchanged(self):
        assert normalize(CoeffList((1, -1, 3))).coeffs == (1, -1, 3)

    def test_anchor_stripped(self):
        c = CoeffList((2, 5), anchor=-7, units="q")
        out = normalize(c)
        assert out.anchor == 0
        assert out.units == "q"

    def test_leading_zero_rejected(self):
        with pytest.raises(WindowError, match="nonzero"):
            normalize(CoeffList((0, 1, 2)))

    def test_empty_rejected(self):
        with pytest.raises(WindowError, match="empty"):
            normalize(CoeffList(()))

    def test_bad_units_rejected(self):
        with pytest.raises(WindowError, match="units"):
            CoeffList((1,), units="z")

    def test_fractional_coefficient_rejected(self):
        with pytest.raises(WindowError, match="non-integer"):
            CoeffList((Fraction(1, 2),))
        with pytest.raises(WindowError, match="non-integer"):
            CoeffList((1, -2, Fraction(1, 2)))

    def test_integral_coefficients_become_ints(self):
        # a tuple of plain ints is kept; anything else is checked and rebuilt
        for coeffs in ((Fraction(3), 2), [3, 2], (3.0, Fraction(2))):
            c = CoeffList(coeffs)
            assert c.coeffs == (3, 2)
            assert all(type(x) is int for x in c.coeffs)
        plain = (3, 2)
        assert CoeffList(plain).coeffs is plain

    @given(heads, tails)
    @settings(max_examples=40)
    def test_idempotent(self, head, rest):
        c = CoeffList((head, *rest), anchor=3)
        assert normalize(normalize(c)) == normalize(c)


class TestNEquivalent:
    def test_paper_instance(self):
        # -q^-4 + 4q^-3 - 6 + 11q against 1 - 4q + 6q^4
        p1 = CoeffList((-1, 4, 0, 0, -6, 11), anchor=-4)
        p2 = CoeffList((1, -4, 0, 0, 6, 0))
        assert n_equivalent(p1, p2, 5)
        assert not n_equivalent(p1, p2, 6)

    def test_reflexive_within_window(self):
        p = CoeffList((3, -1, 4))
        for n in range(4):
            assert n_equivalent(p, p, n)

    def test_zero_depth_always_true(self):
        assert n_equivalent(CoeffList((1,)), CoeffList((-2,)), 0)

    def test_insufficient_window(self):
        with pytest.raises(WindowError, match="insufficient window"):
            n_equivalent(CoeffList((1, 2)), CoeffList((1, 2, 3)), 3)

    def test_units_must_match(self):
        a = CoeffList((1, 2), units="A")
        b = CoeffList((1, 2), units="q")
        with pytest.raises(WindowError, match="units"):
            n_equivalent(a, b, 1)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            n_equivalent(CoeffList((1,)), CoeffList((1,)), -1)

    def test_golden_pair(self):
        a = reduced_window([8, 6, 2], 2, 5)
        b = reduced_window([8, 6, 3], 2, 5)
        assert n_equivalent(a, b, 3)
        assert not n_equivalent(a, b, 4)
        assert normalize(a).coeffs[:4] == (1, -1, 3, -3)
        assert normalize(b).coeffs[:4] == (1, -1, 3, -4)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
           tails, tails, tails,
           st.sampled_from((1, -1)), st.sampled_from((1, -1)),
           st.sampled_from((1, -1)))
    @settings(max_examples=60)
    def test_equivalence_relation(self, prefix, t1, t2, t3, s1, s2, s3):
        prefix[0] = abs(prefix[0]) + 1
        n = len(prefix)
        a = CoeffList(tuple(s1 * c for c in prefix + t1))
        b = CoeffList(tuple(s2 * c for c in prefix + t2))
        c = CoeffList(tuple(s3 * c for c in prefix + t3))
        assert n_equivalent(a, b, n) and n_equivalent(b, c, n)
        assert n_equivalent(a, c, n)
        assert n_equivalent(b, a, n)


class TestStablePrefix:
    def test_identical_lists(self):
        p = CoeffList((1, -1, 3, -4))
        assert stable_prefix(p, p) == 4

    def test_golden_pair_is_three(self):
        a = reduced_window([8, 6, 2], 2, 5)
        b = reduced_window([8, 6, 3], 2, 5)
        assert stable_prefix(a, b) == 3

    def test_differs_at_zero(self):
        assert stable_prefix(CoeffList((1, 2)), CoeffList((2, 2))) == 0

    def test_empty_overlap(self):
        assert stable_prefix(CoeffList(()), CoeffList((1,))) == 0

    def test_sign_blind(self):
        a = CoeffList((2, -3, 5))
        b = CoeffList((-2, 3, -5))
        assert stable_prefix(a, b) == 3

    @given(heads, tails, heads, tails)
    @settings(max_examples=60)
    def test_consistent_with_n_equivalent(self, h1, t1, h2, t2):
        a = CoeffList((h1, *t1))
        b = CoeffList((h2, *t2))
        sp = stable_prefix(a, b)
        cap = min(len(a.coeffs), len(b.coeffs))
        assert n_equivalent(a, b, sp)
        if sp < cap:
            assert not n_equivalent(a, b, sp + 1)


class TestWindowConstructors:
    def test_bracket_window_anchor_and_zeros(self):
        poly = unreduced_colored_jones(pretzel([1, 1, 1]), 1).value
        w = window_from_bracket(poly, 17)
        assert w.units == "A"
        assert w.anchor == poly.min_degree()
        assert w.coeffs[0] != 0
        assert len(w.coeffs) == 17
        # bracket support is 4-sparse, so three zeros follow each entry
        assert w.coeffs[1:4] == (0, 0, 0)

    def test_bracket_window_pads_past_top(self):
        poly = unreduced_colored_jones(pretzel([1, 1]), 1).value
        w = window_from_bracket(poly, 40)
        span = poly.max_degree() - poly.min_degree() + 1
        assert len(w.coeffs) == 40
        assert all(c == 0 for c in w.coeffs[span:])

    def test_zero_polynomial_rejected(self):
        from skeinkit.algebra import LaurentPoly

        with pytest.raises(WindowError, match="zero polynomial"):
            window_from_bracket(LaurentPoly.zero(), 3)

    def test_negative_length_rejected(self):
        poly = unreduced_colored_jones(pretzel([1, 1, 1]), 1).value
        with pytest.raises(ValueError):
            window_from_bracket(poly, -1)

    def test_reduced_window_units(self):
        qp = reduced_jones(pretzel([8, 6, 2]), 2)
        w = window_from_reduced(qp, 4)
        assert w.units == "q"
        assert normalize(w).coeffs == (1, -1, 3, -3)

    def test_reduced_window_records_lattice(self):
        qp = reduced_jones(pretzel([2, 3, 2]), 2)
        w = window_from_reduced(qp, 3)
        assert w.units == "q"
        assert type(w.anchor) is int and w.anchor == qp.min_degree()

    def test_anchors_are_ints_on_the_q_lattice(self):
        # an anchor is an int, not a Fraction; a half-q unit has no
        # lattice to sit on
        assert type(CoeffList((1,), anchor=True).anchor) is int
        with pytest.raises(TypeError):
            CoeffList((1,), anchor=Fraction(-3, 2))
        with pytest.raises(WindowError, match="units"):
            CoeffList((1,), units="q/2")

    def test_a_non_planar_pd_code_is_refused(self):
        # on the torus a smoothing flip can keep the loop count and move
        # the bracket's exponents by 2, off the integer q-lattice; the
        # code is refused before any bracket is taken
        with pytest.raises(DiagramError, match="planar"):
            parse_pd("PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,2],X[4,7,3,8]]")

    def test_empty_window_allowed(self):
        poly = unreduced_colored_jones(pretzel([1, 1, 1]), 1).value
        assert window_from_bracket(poly, 0).coeffs == ()


class TestFamilyExpr:
    def test_basic_arithmetic(self):
        assert FamilyExpr.parse("k+1")(3) == 4
        assert FamilyExpr.parse("3*k+1")(2) == 7
        assert FamilyExpr.parse("(k+2)*k")(3) == 15
        assert FamilyExpr.parse("10-2*k")(4) == 2
        assert FamilyExpr.parse("-k")(2) == -2

    def test_constants_have_no_parameter(self):
        e = FamilyExpr.parse("--3")
        assert e.var is None
        assert e(99) == 3

    def test_whitespace_tolerated(self):
        assert FamilyExpr.parse(" k  + 1 ")(5) == 6

    def test_str_round_trip(self):
        assert str(FamilyExpr.parse("2*k-1")) == "2*k-1"

    def test_unary_minus_nests(self):
        assert FamilyExpr.parse("2--3")(0) == 5
        assert FamilyExpr.parse("2*-3")(0) == -6

    def test_truncated_input_position(self):
        with pytest.raises(ExpressionError) as exc:
            FamilyExpr.parse("k+")
        assert exc.value.position == 2

    def test_trailing_input_position(self):
        with pytest.raises(ExpressionError) as exc:
            FamilyExpr.parse("2k")
        assert exc.value.position == 1

    @pytest.mark.parametrize("text", ["k²", "2²", "k٣"])
    def test_non_ascii_digit_is_refused(self, text):
        # str.isalnum and str.isdigit take "²" and "٣", which would join
        # the parameter's name or fail int()
        with pytest.raises(ExpressionError, match="unexpected character") as exc:
            FamilyExpr.parse(text)
        assert exc.value.position == 1
        assert str(exc.value).endswith("(column 2)")

    def test_two_parameters_rejected(self):
        with pytest.raises(ExpressionError, match="one parameter") as exc:
            FamilyExpr.parse("k+m")
        assert exc.value.position == 2

    def test_unclosed_paren_position(self):
        with pytest.raises(ExpressionError) as exc:
            FamilyExpr.parse("(k+1")
        assert exc.value.position == 4

    def test_deep_nesting_is_an_expression_error(self):
        with pytest.raises(ExpressionError, match="nests too deeply"):
            FamilyExpr.parse("(" * 1200 + "k" + ")" * 1200)

    def test_long_flat_chains_evaluate(self):
        # a run of + - or * is one node, so its length costs no recursion
        assert FamilyExpr.parse("k+" * 3000 + "k")(2) == 6002
        assert FamilyExpr.parse("k-" * 3000 + "k")(2) == -5998
        assert FamilyExpr.parse("1*" * 3000 + "k")(5) == 5
        assert FamilyExpr.parse("k*k+" * 1500 + "-k")(3) == 13497
        assert FamilyExpr.parse("2+3*k-4*k*(k-1)")(2) == 0

    def test_bad_character_position(self):
        with pytest.raises(ExpressionError) as exc:
            FamilyExpr.parse("k$1")
        assert exc.value.position == 1

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-20, 20))
    @settings(max_examples=40)
    def test_linear_forms(self, a, b, k):
        e = FamilyExpr.parse(f"{a}*k+{b}" if b >= 0 else f"{a}*k-{-b}")
        assert e(k) == a * k + b


class TestFamilySpec:
    def test_members_match_direct_construction(self):
        spec = pretzel_family("8,6,k", "2", 1, 10)
        m = spec.member(3)
        assert m == Ring((8, 6, 3), 0)
        assert series_window(m, 2, 6) == series_window(pretzel([8, 6, 3]), 2, 6)

    def test_comma_string_and_sequence_agree(self):
        a = pretzel_family("2, 5, k", "k+1", 1, 5)
        b = pretzel_family(["2", "5", "k"], "k+1", 1, 5)
        assert a.describe() == b.describe()

    def test_zero_size_member(self):
        spec = pretzel_family("2,k,2", "2", 0, 2)
        assert spec.member(0).counts == (2, 0, 2)

    def test_members_are_fresh_pretzels(self):
        # the start member's growing columns are empty; every member
        # has the value of the pretzel of its sizes
        spec = pretzel_family("k,k,2", "3", 0, 3)
        for k in range(4):
            assert spec.member(k) == Ring((k, k, 2), 0)
            assert (series_window(spec.member(k), 3, 4)
                    == series_window(pretzel([k, k, 2]), 3, 4))

    def test_negative_size_reported_with_parameter(self):
        spec = pretzel_family("8,6,5-2*k", "2", 1, 4)
        with pytest.raises(MemberError) as exc:
            spec.member(3)
        assert exc.value.parameter == 3

    def test_bad_color_reported(self):
        spec = pretzel_family("2,3,2", "k-2", 1, 4)
        with pytest.raises(MemberError) as exc:
            spec.member_color(1)
        assert exc.value.parameter == 1

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty parameter range"):
            pretzel_family("8,6,k", "2", 5, 3)

    def test_describe_names_everything(self):
        text = pretzel_family("8,6,k", "2", 1, 10).describe()
        assert "3: k" in text and "color 2" in text and "1..10" in text

    def test_mapping_and_int_inputs(self):
        base = Ring((2, 3, 2), 0)
        spec = FamilySpec(base=base, sizes={3: "k"}, color=2, start=2, stop=4)
        assert spec.member(4) == Ring((2, 3, 4), 0)
        assert spec.member_color(3) == 2

    def test_sizes_must_name_a_column(self):
        base = Ring((3,), 0)
        for col in (0, 2):
            with pytest.raises(LayoutError, match="not a column"):
                FamilySpec(base=base, sizes={col: "k"}, color=2, start=1,
                           stop=2)

    def test_column_must_be_an_int(self):
        with pytest.raises(TypeError):
            FamilySpec(base=Ring((2, 3, 2), 0), sizes={2.9: "k"}, color=2,
                       start=1, stop=2)

    def test_parameters_inclusive(self):
        assert list(pretzel_family("1,1", "2", 2, 5).parameters()) == [2, 3, 4, 5]


class TestFamilyTail:
    def test_first_table_family(self):
        report = family_tail(pretzel_family("8,6,k", "2", 1, 10), "k+1")
        assert report.passed
        assert report.units == "q"
        assert report.tail.coeffs == (1, -1, 3, -4, 6, -8, 10, -11, 13, -13, 14)
        assert report.parameters == tuple(range(1, 11))
        assert len(report.anchors) == 10
        # the k+1 rate is maximal at every step of this family
        assert all(s.verified == s.required for s in report.steps)

    def test_growing_family_color_four(self):
        report = family_tail(pretzel_family("k+2,k+4,k+1", "4", 1, 7), "3*k+1")
        assert report.passed
        assert report.tail.coeffs[:10] == (1, -1, -1, 0, 4, 0, -4, -5, 7, 6)
        assert len(report.tail.coeffs) == 22

    def test_second_table_family(self):
        report = family_tail(pretzel_family("k,k,2", "2", 1, 10), "k+1")
        assert report.passed
        assert report.tail.coeffs == (1, -1, 3, -3, 5, -6, 7, -8, 9, -10, 11)

    def test_constant_family_trivial(self):
        report = family_tail(pretzel_family("2,3,2", "2", 1, 4), "k+10")
        assert report.passed
        assert all(s.verified == min(len(s.left), len(s.right))
                   for s in report.steps)

    def test_failure_reported_per_step(self):
        report = family_tail(pretzel_family("k,k,2", "2", 1, 4), "k+3")
        assert not report.passed
        first = report.steps[0]
        assert not first.passed
        assert first.required == 4
        assert first.verified == 2
        assert first.left[:3] != first.right[:3]
        # later steps were still evaluated
        assert len(report.steps) == 3

    def test_single_member_range(self):
        report = family_tail(pretzel_family("8,6,k", "2", 3, 3), "k+1")
        assert report.passed
        assert report.steps == ()
        assert report.tail.coeffs[:4] == (1, -1, 3, -4)

    def test_lower_rate_also_passes(self):
        spec = pretzel_family("8,6,k", "2", 1, 6)
        assert family_tail(spec, "k+1").passed
        assert family_tail(spec, "k").passed

    def test_tail_unique_across_rates(self):
        spec = pretzel_family("8,6,k", "2", 1, 6)
        t1 = family_tail(spec, "k+1").tail.coeffs
        t2 = family_tail(spec, "k").tail.coeffs
        overlap = min(len(t1), len(t2))
        assert t1[:overlap] == t2[:overlap]

    def test_tail_agrees_with_members_to_verified_depth(self):
        spec = pretzel_family("8,6,k", "2", 1, 8)
        report = family_tail(spec, "k+1")
        for step in report.steps:
            k = step.parameter
            member = normalize(reduced_window([8, 6, k], 2, step.verified))
            depth = min(step.verified, len(report.tail.coeffs))
            assert member.coeffs[:depth] == report.tail.coeffs[:depth]

    def test_member_error_carries_parameter(self):
        spec = pretzel_family("8,6,5-2*k", "2", 1, 4)
        with pytest.raises(MemberError) as exc:
            family_tail(spec, "k+1")
        assert exc.value.parameter == 3

    def test_rate_from_callable(self):
        spec = pretzel_family("8,6,k", "2", 1, 4)
        report = family_tail(spec, lambda k: k + 1)
        assert report.passed

    def test_depth_validates(self):
        with pytest.raises(ValueError):
            family_tail(pretzel_family("1,1", "2", 1, 2), "k", depth=-1)


class TestReducedWindows:
    def test_members_in_parameter_order(self):
        spec = pretzel_family("8,6,k", "2", 1, 4)
        got = reduced_windows(spec, [2, 3, 4, 5])
        assert got == [reduced_window([8, 6, k], 2, k + 1) for k in range(1, 5)]

    def test_network_budget_is_passed_along(self):
        spec = pretzel_family("2,2,k", "4", 1, 2)
        with pytest.raises(BudgetError, match="12 fusion column terms"):
            reduced_windows(spec, [20, 20], max_networks=10)

    @pytest.mark.parametrize(
        "run",
        [
            # windows wide enough to reach most channels of most exits
            lambda spec: family_tail(spec, 160000),
            lambda spec: check_colored_rate(spec, rate=640000),
            lambda spec: reduced_windows(spec, [160000, 160000]),
        ],
        ids=["family_tail", "check_colored_rate", "reduced_windows"],
    )
    def test_budget_refusal_is_not_a_member_failure(self, run):
        spec = pretzel_family("2,2,k", "400", 1, 2)
        with pytest.raises(BudgetError) as exc:
            run(spec)
        assert not isinstance(exc.value, MemberError)
        assert "family member" not in str(exc.value)

    def test_color_stability_budget_refusal(self):
        with pytest.raises(BudgetError) as exc:
            check_color_stability(pretzel([2, 2, 2]), (399, 400),
                                  depth=640000)
        assert not isinstance(exc.value, MemberError)

    def test_first_failing_member_is_named(self):
        # a size fails at k = 3 and the color at k = 6: the colors are
        # read ahead of the members, and the first failure is still named
        spec = pretzel_family("8,6,5-2*k", "6-k", 1, 6)
        with pytest.raises(MemberError) as exc:
            reduced_windows(spec, [2] * 6)
        assert exc.value.parameter == 3

    def test_value_error_names_the_member(self):
        spec = pretzel_family("8,6,k", "2", 1, 3)
        with pytest.raises(MemberError, match="nonnegative") as exc:
            reduced_windows(spec, [1, -1, 1])
        assert exc.value.parameter == 2
        assert "family member at parameter 2 failed" in str(exc.value)


class TestBracketRate:
    def test_marked_region_rate(self):
        report = check_bracket_rate(pretzel_family("8,6,k", "2", 2, 5))
        assert report.passed
        assert report.units == "A"
        assert [s.required for s in report.steps] == [12, 16, 20]
        # agreement lands exactly on the theorem's 4k
        assert all(s.verified == s.required for s in report.steps)

    def test_simultaneous_decrement_rate(self):
        report = check_bracket_rate(pretzel_family("k,k,2", "2", 1, 5))
        assert report.passed
        assert [s.required for s in report.steps] == [8, 12, 16, 20]
        assert all(s.verified == s.required for s in report.steps)

    def test_inflated_rate_fails(self):
        report = check_bracket_rate(
            pretzel_family("8,6,k", "2", 2, 5), rate="4*k+5"
        )
        assert not report.passed
        assert all(not s.passed for s in report.steps)
        assert all(s.verified == 4 * s.parameter for s in report.steps)

    def test_constant_step_is_vacuous(self):
        report = check_bracket_rate(pretzel_family("2,3,2", "2", 1, 3))
        assert report.passed
        assert all(s.required == 0 for s in report.steps)

    def test_custom_rate_evaluated_at_later_member(self):
        report = check_bracket_rate(
            pretzel_family("8,6,k", "2", 2, 4), rate="4*k"
        )
        assert [s.required for s in report.steps] == [12, 16]
        assert report.passed


class TestColoredRate:
    def test_cable_two_rate(self):
        report = check_colored_rate(pretzel_family("2,2,k", "3", 2, 4))
        assert report.passed
        assert report.units == "A"
        assert [s.required for s in report.steps] == [20, 28]
        assert all(s.verified == s.required for s in report.steps)

    def test_inflated_colored_rate_fails(self):
        report = check_colored_rate(
            pretzel_family("2,2,k", "3", 2, 4), rate="8*k-3"
        )
        assert not report.passed

    def test_color_two_reduces_to_bracket_rate(self):
        spec = pretzel_family("8,6,k", "2", 2, 4)
        report = check_colored_rate(spec)
        assert [s.required for s in report.steps] == [12, 16]
        assert report.passed


class TestColorStability:
    def test_color_ladder(self):
        report = check_color_stability(pretzel([2, 3, 2], name="P(2,3,2)"), (1, 2, 3))
        assert report.passed
        assert [s.required for s in report.steps] == [8, 12]
        assert all(s.verified == s.required for s in report.steps)
        assert "P(2,3,2)" in report.family

    def test_cross_twist_shifts(self):
        report = check_color_stability(
            pretzel([2, 3, 2]), (1, 2), twist_shifts={1: 2, 3: 3}
        )
        assert report.passed
        assert [s.required for s in report.steps] == [8]
        assert report.steps[0].verified == 8

    def test_shift_must_keep_a_crossing(self):
        with pytest.raises(ValueError, match="at least one crossing"):
            check_color_stability(pretzel([2, 3, 2]), (1, 2),
                                  twist_shifts={1: -2})

    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError, match="unknown region"):
            check_color_stability(pretzel([2, 3, 2]), (1, 2),
                                  twist_shifts={9: 1})

    def test_shifts_need_a_ring_layout(self):
        # a planar drawing whose regions do not close into a column ring
        d = parse_pd("PD[X[4,2,5,1],X[8,4,9,3],X[12,9,1,10],X[10,5,11,6],"
                     "X[6,11,7,12],X[2,8,3,7]]")
        with pytest.raises(LayoutError, match="ring layout"):
            check_color_stability(d, (1, 2), twist_shifts={1: 1})

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("rid", [1, 2])
    def test_zero_region_is_never_shifted(self, rid, diagonal):
        # one color shifts nothing, so a zero region keeps no crossing
        # there; the refusal comes before any member is built
        with pytest.raises(ValueError, match="at least one crossing"):
            check_color_stability(pretzel([0, 0, 1]), (1, 2),
                                  twist_shifts={rid: 1}, diagonal=diagonal)

    def test_colors_must_be_consecutive(self):
        with pytest.raises(ValueError, match="consecutive"):
            check_color_stability(pretzel([2, 3, 2]), (1, 3))
        with pytest.raises(ValueError, match="start at 1"):
            check_color_stability(pretzel([2, 3, 2]), (0, 1))

    def test_colors_must_be_ints(self):
        # int() would read them as colors 1..2
        with pytest.raises(TypeError):
            check_color_stability(pretzel([2, 3, 2]), (1.9, 2.9))

    def test_single_color_trivial(self):
        report = check_color_stability(pretzel([2, 3, 2]), (2,))
        assert report.passed
        assert report.steps == ()

    def test_diagonal_family(self):
        report = check_color_stability(pretzel([2, 3, 2]), (2, 3), diagonal=True)
        assert report.passed
        assert report.steps[0].required == 12
        assert report.steps[0].verified == 12
        assert "diagonal" in report.family

    def test_matching_reduced_minus_graphs_share_a_window(self):
        a = bracket_window([2, 2, 2], 2, 24)
        b = bracket_window([4, 5, 3], 2, 24)
        assert n_equivalent(a, b, 8)
        # the shared tail actually reaches further than the guaranteed 8
        assert stable_prefix(a, b) == 20


class TestReports:
    def test_json_shape(self):
        report = family_tail(pretzel_family("8,6,k", "2", 1, 4), "k+1")
        data = json.loads(report.to_json())
        assert data["passed"] is True
        assert data["units"] == "q"
        assert data["rate"] == "k+1"
        assert data["parameters"] == [1, 2, 3, 4]
        assert len(data["anchors"]) == 4
        step = data["steps"][0]
        assert set(step) == {"parameter", "required", "verified", "passed",
                             "left", "right"}
        assert data["tail"]["coeffs"] == [1, -1, 3, -4, 6]
        assert data["tail"]["normalized"] is True

    def test_json_matches_dataclass(self):
        report = check_bracket_rate(pretzel_family("8,6,k", "2", 2, 4))
        data = json.loads(report.to_json())
        for step, raw in zip(report.steps, data["steps"]):
            assert raw["required"] == step.required
            assert raw["verified"] == step.verified
            assert tuple(raw["left"]) == step.left

    def test_text_report_mentions_everything(self):
        report = family_tail(pretzel_family("8,6,k", "2", 1, 4), "k+1")
        text = report.to_text()
        assert "q-units" in text
        assert "result: PASS" in text
        assert "tail: 1 -1 3 -4 6" in text

    def test_text_report_shows_failure_witness(self):
        report = family_tail(pretzel_family("k,k,2", "2", 1, 3), "k+3")
        text = report.to_text()
        assert "FAIL" in text
        assert "left" in text and "right" in text
        # the differing coefficients appear in the witness lines
        first = next(s for s in report.steps if not s.passed)
        assert " ".join(str(c) for c in first.left) in text

    def test_report_is_deterministic(self):
        spec = pretzel_family("2,2,k", "3", 2, 3)
        assert check_colored_rate(spec).to_json() == check_colored_rate(spec).to_json()
