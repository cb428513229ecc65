"""Exact-arithmetic layer: Laurent polynomials, rational functions,
closed-form network values, and the q-substitution."""

import itertools
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinkit.algebra import (
    DELTA,
    AdmissibilityError,
    CyclotomicError,
    ExactDivisionError,
    GradingError,
    LaurentPoly,
    QPoly,
    RationalFn,
    ZeroPolynomialError,
    _kronecker_pays,
    _pack,
    _unpack,
    admissible,
    cyclotomic4,
    delta,
    exact_div,
    fusion_coeff,
    min_degree,
    mirror,
    phi_power,
    qpoch4,
    quantum_fact,
    quantum_int,
    substitute_quarter,
    tet,
    tet_factors,
    theta,
    theta_factors,
    try_div,
    twist_coeff,
)
from skeinkit.algebra import _cyclotomic_factors


def P(**kw):
    # P(a_4=1, a_m2=-1) -> A^4 - A^-2, exponent spelled with m for minus
    terms = {}
    for key, c in kw.items():
        e = key[2:] if key.startswith("a_") else key[1:]
        e = -int(e[1:]) if e.startswith("m") else int(e)
        terms[e] = c
    return LaurentPoly(terms)


small_polys = st.dictionaries(
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)


class TestLaurentPoly:
    def test_zero_and_one(self):
        assert LaurentPoly.zero().is_zero()
        assert LaurentPoly.one().is_one()
        assert not LaurentPoly({0: 1, 2: 0}).terms.get(2)

    def test_degree_of_zero_raises(self):
        with pytest.raises(ZeroPolynomialError):
            LaurentPoly.zero().min_degree()
        with pytest.raises(ZeroPolynomialError):
            min_degree(LaurentPoly.zero())

    def test_min_degree_examples(self):
        assert min_degree(P(a_m3=-1, a_5=1)) == -3
        assert min_degree(delta(2)) == -4

    def test_string_and_repr_round_trip_sanity(self):
        assert str(LaurentPoly.zero()) == "0"
        assert "A^-2" in str(DELTA)

    def test_mul_pow(self):
        d = DELTA
        assert d * d == d ** 2
        assert d ** 0 == LaurentPoly.one()
        assert (d ** 3).min_degree() == -6

    def test_mirror_is_involution(self):
        f = P(a_m4=2, a_0=-1, a_6=3)
        assert mirror(mirror(f)) == f
        assert mirror(DELTA) == DELTA

    @given(small_polys, small_polys)
    @settings(max_examples=60)
    def test_ring_axioms_spotcheck(self, f, g):
        assert f + g == g + f
        assert f * g == g * f
        assert f - f == LaurentPoly.zero()

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(-9, 9), st.data())
    @settings(max_examples=60)
    def test_unpack_inverts_pack_up_to_the_digit_bound(self, width, step, lo, data):
        # every |c| < 2^(8*width - 1) reads back, the extremes included
        edge = (1 << (8 * width - 1)) - 1
        coeffs = st.integers(-edge, edge).filter(bool)
        terms = data.draw(st.dictionaries(
            st.integers(0, 12).map(lambda i: lo + step * i), coeffs, min_size=1))
        assert _unpack(_pack(terms, lo, step, width), lo, step, width) == terms
        # a top digit 1 over the most negative digit: the shortest packed int
        terms = {lo: -edge, lo + step: 1}
        assert _unpack(_pack(terms, lo, step, width), lo, step, width) == terms

    def test_fraction_coefficient_raises(self):
        # coefficients live in Z: a Fraction is refused, even an integral one
        for c in (Fraction(1, 2), Fraction(2, 1), 0.5):
            with pytest.raises(TypeError):
                LaurentPoly({0: c})
            with pytest.raises(TypeError):
                P(a_0=2).scaled(c)
        with pytest.raises(TypeError):
            P(a_0=2) * Fraction(1, 2)

    def test_non_integer_exponent_raises(self):
        # exponents live in Z too: 2.5 is refused, not truncated to 2
        for e in (2.5, Fraction(3, 2), Fraction(2, 1)):
            with pytest.raises(TypeError):
                LaurentPoly({e: 1})
            with pytest.raises(TypeError):
                QPoly({e: 2})


class TestExactDiv:
    def test_trivial_remainder_error(self):
        with pytest.raises(ExactDivisionError):
            exact_div(P(a_0=1, a_4=1), P(a_0=1, a_2=1))

    def test_theta_numerator_case(self):
        # same quotient the (1,1,2) theta value comes from
        num = qpoch4(1) * qpoch4(1) * qpoch4(3)
        den = LaurentPoly({0: 1, 4: -1}) * qpoch4(1) * qpoch4(2) * qpoch4(1)
        assert exact_div(num, den).shifted(-4) == delta(2)

    def test_divide_by_zero(self):
        with pytest.raises(ExactDivisionError):
            exact_div(P(a_0=1), LaurentPoly.zero())

    @given(small_polys, small_polys)
    @settings(max_examples=60)
    def test_round_trip(self, f, g):
        if g.is_zero():
            return
        assert exact_div(f * g, g) == f

    def test_non_dividing_lead_raises(self):
        # the quotient would leave Z[A, A^-1]
        for f, g in ((P(a_0=2, a_4=2), P(a_0=3)), (P(a_0=1), P(a_0=2)),
                     (P(a_0=1, a_4=1), P(a_0=2, a_4=2))):
            assert try_div(f, g) is None
            with pytest.raises(ExactDivisionError):
                exact_div(f, g)
        assert exact_div(P(a_0=6, a_4=-4), P(a_0=2)) == P(a_0=3, a_4=-2)

    def test_error_message_names_shapes_only(self):
        big = quantum_fact(14) + 1
        with pytest.raises(ExactDivisionError) as err:
            exact_div(big, cyclotomic4(5))
        text = str(err.value)
        assert len(text) < 200
        assert f"{len(big.terms)} terms" in text and "5 terms" in text
        assert f"{big.min_degree()}..{big.max_degree()}" in text


class TestRationalFn:
    def test_monomial_content_cancels(self):
        r = RationalFn(P(a_6=1, a_8=1), P(a_4=-1))
        assert r.den.is_one() or r.den.min_degree() == 0
        assert r == RationalFn(P(a_2=1, a_4=1), P(a_0=-1))

    def test_cross_multiplication_equality(self):
        r1 = RationalFn(delta(2), DELTA)
        r2 = RationalFn(delta(2) * delta(3), DELTA * delta(3))
        assert r1 == r2
        assert hash(r1.reduce()) == hash(r2.reduce())

    def test_to_poly_asserts_exactness(self):
        with pytest.raises(ExactDivisionError):
            RationalFn(delta(2), DELTA).to_poly()
        assert RationalFn(delta(2) * DELTA, DELTA).to_poly() == delta(2)

    def test_min_degree_difference(self):
        assert RationalFn(delta(2), DELTA).min_degree() == -2

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            RationalFn(LaurentPoly.one(), LaurentPoly.zero())
        with pytest.raises(ZeroDivisionError):
            RationalFn.from_poly(LaurentPoly.one()) / RationalFn.from_poly(
                LaurentPoly.zero()
            )

    def test_field_arithmetic(self):
        x = RationalFn(LaurentPoly.one(), DELTA)
        assert x + x == RationalFn(LaurentPoly({0: 2}), DELTA)
        assert (x - x).is_zero()
        assert x * DELTA == RationalFn.from_poly(LaurentPoly.one())
        assert (x ** -1) == RationalFn.from_poly(DELTA)

    def test_reduce_strips_common_factor(self):
        r = RationalFn(delta(3) * delta(2), delta(3) * DELTA)
        red = r.reduce()
        assert red == r
        assert red.den.max_degree() - red.den.min_degree() <= 4

    def test_hash_agrees_with_equality(self):
        p = delta(2)
        assert RationalFn.from_poly(p) == p and RationalFn.from_poly(p) in {p}
        r = RationalFn(delta(2) * DELTA, DELTA)
        assert r == p and hash(r) == hash(p) and r in {p}
        q = RationalFn(delta(2), DELTA)
        assert q * DELTA in {p} and q not in {p}

    def test_non_cyclotomic_denominator_raises(self):
        one = LaurentPoly.one()
        for den in (P(a_0=1, a_4=2), P(a_4=2), P(a_0=1, a_2=1),
                    P(a_0=1, a_4=1, a_8=-1)):
            with pytest.raises(CyclotomicError):
                RationalFn(one, den)
            with pytest.raises(CyclotomicError):
                RationalFn.from_poly(one) / den

    @given(st.dictionaries(st.integers(1, 30), st.integers(1, 3), max_size=4),
           st.integers(-20, 20), st.sampled_from((1, -1)))
    @settings(max_examples=60, deadline=None)
    def test_cyclotomic_factors_round_trip(self, vec, shift, sign):
        f = phi_power(vec).shifted(shift).scaled(sign)
        assert _cyclotomic_factors(f) == (sign, shift, vec)
        # 1 + x - x^2 has the golden ratio as a root, so no Phi_d divides it
        assert _cyclotomic_factors(f * P(a_0=1, a_4=1, a_8=-1)) is None


class TestClosedForms:
    def test_qpoch4_values(self):
        assert qpoch4(0) == LaurentPoly.one()
        assert qpoch4(1) == LaurentPoly({0: 1, 4: -1})
        assert qpoch4(2) == LaurentPoly({0: 1, 4: -1}) * LaurentPoly({0: 1, 8: -1})

    def test_delta_examples(self):
        assert delta(0) == LaurentPoly.one()
        assert delta(1) == DELTA
        assert delta(2) == P(a_4=1, a_0=1, a_m4=1)

    def test_delta_alternating_sign_and_width(self):
        for n in range(8):
            d = delta(n)
            assert d.min_degree() == -2 * n and d.max_degree() == 2 * n
            assert d.coeff(2 * n) == (-1) ** n

    def test_theta_examples(self):
        assert theta(1, 1, 2) == P(a_m4=1, a_0=1, a_4=1)
        for n in (1, 2, 3):
            assert theta(n, n, 0) == delta(n)
        with pytest.raises(AdmissibilityError):
            theta(1, 2, 4)

    def test_theta_symmetry(self):
        for (a, b, c) in [(1, 1, 2), (2, 2, 2), (3, 1, 2), (2, 4, 2)]:
            v = theta(a, b, c)
            assert theta(b, c, a) == v
            assert theta(c, a, b) == v

    def test_theta_rational_case(self):
        # all internal colors odd: value is honestly rational
        t = theta(2, 2, 2)
        assert isinstance(t, RationalFn) and not t.is_poly()
        two = P(a_2=1, a_m2=1)
        three = P(a_4=1, a_0=1, a_m4=1)
        four = P(a_6=1, a_2=1, a_m2=1, a_m6=1)
        assert t == -RationalFn(four * three, two * two)

    def test_theta_parity_error(self):
        with pytest.raises(AdmissibilityError):
            theta(1, 1, 1)

    def test_fusion_coeff_examples(self):
        assert fusion_coeff(1, 0) == P(a_1=1)
        assert fusion_coeff(1, 1) == P(a_m1=1)
        assert fusion_coeff(2, 0) == P(a_4=1)
        assert fusion_coeff(2, 1) == P(a_m2=1, a_2=1)

    def test_fusion_coeff_range_error(self):
        with pytest.raises(ValueError):
            fusion_coeff(2, 3)

    def test_fusion_coeff_mirror_symmetry(self):
        for n in range(5):
            for i in range(n + 1):
                assert mirror(fusion_coeff(n, i)) == fusion_coeff(n, n - i)

    def test_twist_coeff_examples(self):
        assert twist_coeff(1, 1, 0) == P(a_3=-1)
        for n in range(1, 5):
            assert twist_coeff(n, n, 2 * n) == LaurentPoly.monomial(-n * n)
        for n in range(1, 5):
            for p in range(n + 1):
                want = LaurentPoly.monomial(
                    n * n + 2 * n - 2 * p - 2 * p * p, (-1) ** (n - p)
                )
                assert twist_coeff(n, n, 2 * p) == want

    def test_twist_coeff_admissibility(self):
        with pytest.raises(AdmissibilityError):
            twist_coeff(1, 1, 4)

    def test_channel_tet_is_symmetric(self):
        # the fused evaluator computes one tet per unordered channel pair
        for n in range(1, 5):
            for p in range(n + 1):
                for q in range(p):
                    assert tet(n, n, 2 * p, n, n, 2 * q) == tet(
                        n, n, 2 * q, n, n, 2 * p
                    ), (n, p, q)


class TestQuantumFactorialCache:
    def test_cold_cache_shared_by_threads(self):
        quantum_fact.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        start = threading.Barrier(4, timeout=60)

        def work():
            start.wait()
            quantum_fact(39)

        try:
            pool = [threading.Thread(target=work) for _ in range(4)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        serial = LaurentPoly.one()
        for k in range(40):
            if k:
                serial = serial * quantum_int(k)
            assert quantum_fact(k) == serial, k


class TestDegreeStepRules:
    def test_twist_coeff_step(self):
        # m(mu_{2j}) - m(mu_{2(j-1)}) = -4j on the (n,n,.) family
        for n in range(1, 5):
            for j in range(1, n + 1):
                step = (
                    twist_coeff(n, n, 2 * j).min_degree()
                    - twist_coeff(n, n, 2 * (j - 1)).min_degree()
                )
                assert step == -4 * j, (n, j)

    def test_weight_step(self):
        # m(delta(2j)/theta(n,n,2j)) drops by exactly 2 per j
        for n in range(1, 5):
            degs = []
            for j in range(n + 1):
                t = theta(n, n, 2 * j)
                t = t if isinstance(t, RationalFn) else RationalFn.from_poly(t)
                degs.append((RationalFn.from_poly(delta(2 * j)) / t).min_degree())
            assert all(b - a == -2 for a, b in zip(degs, degs[1:])), (n, degs)


class TestSubstituteQuarter:
    def test_integral_lattice(self):
        q = substitute_quarter(LaurentPoly({-4: 1, 0: -2, 8: 3}))
        assert q.terms == {-1: 1, 0: -2, 2: 3}
        assert q.residue_quarters == 0

    def test_residue_factored(self):
        q = substitute_quarter(LaurentPoly({-3: 1, 5: 2}))
        assert q.residue_quarters == 1
        assert q.terms == {-1: 1, 1: 2}

    def test_one_class_mod_2_is_refused(self):
        # no planar diagram's bracket spans two classes mod 4, so there
        # is no half-q lattice to land on
        with pytest.raises(GradingError, match="mod 4"):
            substitute_quarter(LaurentPoly({0: 1, 2: 1}))

    def test_mixed_residues_error(self):
        with pytest.raises(GradingError):
            substitute_quarter(LaurentPoly({0: 1, 1: 1}))

    def test_zero_poly(self):
        q = substitute_quarter(LaurentPoly.zero())
        assert q.is_zero()

    def test_qpoly_window(self):
        q = QPoly({-2: 1, 0: -3, 1: 2})
        assert q.coeffs_from_bottom(4) == [1, 0, -3, 2]


# -- differential tests against sympy ----------------------------------------


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def to_sympy(sp, f):
    """f as (shift, Poly) with f = A^shift * Poly and Poly(0) != 0."""
    x = sp.Symbol("A")
    if f.is_zero():
        return 0, sp.Poly(0, x, domain="QQ")
    m = f.min_degree()
    terms = {(e - m,): sp.Rational(c.numerator, c.denominator)
             for e, c in f.terms.items()}
    return m, sp.Poly.from_dict(terms, x, domain="QQ")


def from_sympy(shift, poly):
    terms = {}
    for (e,), c in poly.terms():
        c = Fraction(int(c.p), int(c.q))
        terms[e + shift] = c.numerator if c.denominator == 1 else c
    return LaurentPoly(terms)


def lattice_polys(coeffs, min_terms, max_terms, steps=(2, 4)):
    """Polynomials on one lattice base + step*Z, dense between the ends."""
    return st.builds(
        lambda base, step, cs: LaurentPoly(
            {base + step * i: c for i, c in enumerate(cs)}),
        st.integers(-40, 40),
        st.sampled_from(steps),
        st.lists(coeffs, min_size=min_terms, max_size=max_terms),
    )


small_ints = st.integers(-9, 9)
huge_ints = st.integers(-(2**210), 2**210)
# +-A^s times a product of Phi_d(A^4): the denominators RationalFn accepts
cyclotomic_polys = st.builds(
    lambda vec, shift, sign: phi_power(vec).shifted(shift).scaled(sign),
    st.dictionaries(st.integers(1, 12), st.integers(1, 2), max_size=3),
    st.integers(-12, 12),
    st.sampled_from((1, -1)),
)


class TestAgainstSympy:
    # small operands take the dict loop, large all-int ones Kronecker
    @pytest.mark.parametrize("sizes,kronecker", [((1, 6), False), ((12, 40), True)])
    @pytest.mark.parametrize("coeffs", [small_ints, huge_ints], ids=["small", "huge"])
    def test_multiply(self, sp, sizes, kronecker, coeffs):
        coeffs = coeffs.filter(bool)  # keeps the term counts as drawn

        @given(lattice_polys(coeffs, *sizes), lattice_polys(coeffs, *sizes))
        @settings(max_examples=40, deadline=None)
        def check(f, g):
            assert _kronecker_pays(len(f.terms), len(g.terms)) == kronecker
            (sf, pf), (sg, pg) = to_sympy(sp, f), to_sympy(sp, g)
            assert (f * g).terms == from_sympy(sf + sg, pf * pg).terms

        check()

    @given(lattice_polys(small_ints, 0, 16, (1, 2, 4)),
           lattice_polys(small_ints, 0, 16, (1, 2, 4)))
    @settings(max_examples=60, deadline=None)
    def test_multiply_mixed_lattices(self, sp, f, g):
        (sf, pf), (sg, pg) = to_sympy(sp, f), to_sympy(sp, g)
        prod = f * g
        assert prod.terms == from_sympy(sf + sg, pf * pg).terms
        assert all(type(c) is int for c in prod.terms.values())

    @given(lattice_polys(small_ints, 0, 12), lattice_polys(small_ints, 1, 12),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_exact_div(self, sp, f, g, multiple):
        if g.is_zero():
            return
        if multiple:
            f = f * g
        (sf, pf), (sg, pg) = to_sympy(sp, f), to_sympy(sp, g)
        q, r = sp.div(pf, pg)
        if r.is_zero and all(c.is_integer for c in q.coeffs()):
            assert exact_div(f, g) == from_sympy(sf - sg, q)
        else:
            assert not multiple
            with pytest.raises(ExactDivisionError):
                exact_div(f, g)

    @given(lattice_polys(small_ints, 1, 6), cyclotomic_polys, cyclotomic_polys,
           lattice_polys(small_ints, 1, 6), cyclotomic_polys, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_rational_equality(self, sp, f, g, h, k, u, related):
        r1 = RationalFn(f, g)
        r2 = RationalFn(f * h, g * h) if related else RationalFn(k, u)
        A = sp.Symbol("A")

        def expr(p):
            shift, poly = to_sympy(sp, p)
            return A**shift * poly.as_expr()

        diff = sp.cancel(expr(r1.num) / expr(r1.den) - expr(r2.num) / expr(r2.den))
        assert (r1 == r2) == (diff == 0)
        if related:
            assert r1 == r2


# -- the cyclotomic factorization of the closed forms -------------------------


def ref_theta(a, b, c):
    # the qpoch4 / RationalFn closed form the factored theta replaced
    x, y, z = (a + b - c) // 2, (a + c - b) // 2, (b + c - a) // 2
    s = x + y + z
    sign = -1 if s % 2 else 1
    num = qpoch4(x) * qpoch4(y) * qpoch4(z) * qpoch4(s + 1)
    den = LaurentPoly({0: 1, 4: -1}) * qpoch4(x + y) * qpoch4(y + z) * qpoch4(x + z)
    try:
        return exact_div(num, den).scaled(sign).shifted(-2 * s)
    except ExactDivisionError:
        return RationalFn(num.scaled(sign).shifted(-2 * s), den).reduce()


def ref_tet(a, b, e, c, d, f):
    # the quantum-factorial RationalFn sum the factored tet replaced
    tris = ((a, b, e), (b, c, f), (c, d, e), (a, d, f))
    halves = [sum(t) // 2 for t in tris]
    quads = ((a + b + c + d) // 2, (a + c + e + f) // 2, (b + d + e + f) // 2)
    pre_num = LaurentPoly.one()
    for gj in quads:
        for hi in halves:
            pre_num = pre_num * quantum_fact(gj - hi)
    pre_den = LaurentPoly.one()
    for edge in (a, b, c, d, e, f):
        pre_den = pre_den * quantum_fact(edge)
    total = RationalFn.from_poly(LaurentPoly.zero())
    for s in range(max(halves), min(quads) + 1):
        den = LaurentPoly.one()
        for hi in halves:
            den = den * quantum_fact(s - hi)
        for gj in quads:
            den = den * quantum_fact(gj - s)
        term = RationalFn(quantum_fact(s + 1), den)
        total = total + (-term if s % 2 else term)
    return (RationalFn(pre_num, pre_den) * total).reduce()


def same_form(got, want):
    # equal and in the same reduced, normalized representation
    if isinstance(want, LaurentPoly):
        return isinstance(got, LaurentPoly) and got.terms == want.terms
    return (isinstance(got, RationalFn) and got.num.terms == want.num.terms
            and got.den.terms == want.den.terms)


class TestFactoredClosedForms:
    def test_cyclotomic_factors_of_a4_power(self):
        for k in range(1, 25):
            prod = LaurentPoly.one()
            for d in range(1, k + 1):
                if k % d == 0:
                    prod = prod * cyclotomic4(d)
            assert prod == LaurentPoly({4 * k: 1, 0: -1}), k

    def test_quantum_factorial_factors(self):
        for k in range(12):
            want = phi_power({d: k // d for d in range(2, k + 1)})
            assert quantum_fact(k) == want.shifted(-k * (k - 1)), k

    def test_theta_matches_qpoch_form(self):
        triples = [t for t in itertools.product(range(7), repeat=3)
                   if admissible(*t)]
        assert len(triples) == 106
        for t in triples:
            assert same_form(theta(*t), ref_theta(*t)), t

    def test_tet_matches_rational_sum(self):
        count = 0
        for a, b, e, c, d, f in itertools.product(range(6), repeat=6):
            tris = ((a, b, e), (b, c, f), (c, d, e), (a, d, f))
            if all(admissible(*t) for t in tris):
                count += 1
                got, want = tet(a, b, e, c, d, f), ref_tet(a, b, e, c, d, f)
                assert same_form(got, want), (a, b, e, c, d, f)
        assert count == 1479

    def test_theta_factors_carry_sign_and_shift(self):
        # theta(2,2,2) = -[3][4]/[2]^2 = -A^-6 Phi_3 Phi_4 / Phi_2 in A^4
        sign, shift, vec = theta_factors(2, 2, 2)
        assert (sign, shift) == (-1, -6)
        assert {d: e for d, e in vec.items() if e} == {2: -1, 3: 1, 4: 1}

    def test_tet_factors_are_the_unreduced_tet(self):
        num, vec = tet_factors(4, 4, 2, 4, 4, 6)
        up = {d: e for d, e in vec.items() if e > 0}
        down = {d: -e for d, e in vec.items() if e < 0}
        assert RationalFn(num * phi_power(up), phi_power(down)) == tet(4, 4, 2, 4, 4, 6)
