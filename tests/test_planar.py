"""Diagram engine tests: matchings, projectors, closed networks.

Closed-form values from the algebra module serve as the independent
oracle for every network evaluated here by honest diagram expansion.
"""

import functools
import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skeinkit.planar as planar_module
from skeinkit import cli
from skeinkit.algebra import (
    DELTA,
    ONE,
    ZERO,
    AdmissibilityError,
    LaurentPoly,
    RationalFn,
    admissible,
    delta,
    divide_out,
    fusion_coeff,
    phi_power,
    tet,
    theta,
    twist_coeff,
    vec_sum,
)
from skeinkit.planar import (
    Matching,
    TLMorphism,
    boxed,
    cabled_crossing,
    cabled_kink,
    capnest,
    channel_element,
    close_ring,
    closure,
    _seam_glue,
    _seam_sides,
    _seam_view,
    compose,
    crossing_morphism,
    cupnest,
    drum,
    idpair,
    jones_wenzl,
    quarter_turn,
    seam_closure,
    tensor,
    tet_network,
    theta_network,
    turnback,
    vertex_morphism,
)
from skeinkit.invariants import _clasped_column

from clasped_oracle import clasped_tet, clasped_theta
from plat_oracle import plat_close


def rf(x):
    return x if isinstance(x, RationalFn) else RationalFn.from_poly(x)


# -- matchings and raw plumbing ---------------------------------------


class TestMatching:
    def test_identity_matching(self):
        m = Matching(2, 2, (3, 2, 1, 0))
        assert m.arcs() == [(0, 3), (1, 2)]

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError, match="involution"):
            Matching(2, 2, (1, 2, 3, 0))

    def test_rejects_fixed_point(self):
        with pytest.raises(ValueError, match="involution"):
            Matching(1, 1, (0, 1))

    def test_rejects_crossing_arcs(self):
        # bottom 0-top 0 and bottom 1-top 1 cross as drawn: nodes (0,2),(1,3)
        with pytest.raises(ValueError, match="crossing"):
            Matching(2, 2, (2, 3, 0, 1))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="nodes"):
            Matching(2, 2, (1, 0))


class TestGenerators:
    # (bot, top, pair) of each generator; hook(3, 1), cap(4, 1) and
    # cup(2, 1) share one pair, so the shape is pinned with it
    @pytest.mark.parametrize("make, args, want", [
        (TLMorphism.hook, (2, 0), (2, 2, (1, 0, 3, 2))),
        (TLMorphism.hook, (3, 1), (3, 3, (5, 2, 1, 4, 3, 0))),
        (TLMorphism.hook, (4, 0), (4, 4, (1, 0, 5, 4, 3, 2, 7, 6))),
        (TLMorphism.hook, (4, 2), (4, 4, (7, 6, 3, 2, 5, 4, 1, 0))),
        (TLMorphism.cap, (2, 0), (2, 0, (1, 0))),
        (TLMorphism.cap, (3, 1), (3, 1, (3, 2, 1, 0))),
        (TLMorphism.cap, (4, 1), (4, 2, (5, 2, 1, 4, 3, 0))),
        (TLMorphism.cup, (0, 0), (0, 2, (1, 0))),
        (TLMorphism.cup, (2, 0), (2, 4, (3, 2, 1, 0, 5, 4))),
        (TLMorphism.cup, (2, 1), (2, 4, (5, 2, 1, 4, 3, 0))),
        (turnback, (0, 0), (0, 0, ())),
        (turnback, (1, 0), (2, 2, (1, 0, 3, 2))),
        (turnback, (2, 0), (4, 4, (3, 2, 1, 0, 7, 6, 5, 4))),
        (turnback, (2, 1), (4, 4, (7, 2, 1, 4, 3, 6, 5, 0))),
        (turnback, (3, 1),
         (6, 6, (11, 4, 3, 2, 1, 6, 5, 10, 9, 8, 7, 0))),
    ])
    def test_generator_matchings(self, make, args, want):
        m = make(*args)
        bot, top, pair = want
        assert (m.bot, m.top, m.nums, m.den) == (bot, top, {pair: ONE}, {})

    @pytest.mark.parametrize("make, args, message", [
        (TLMorphism.hook, (3, 2), "hook position 2 out of range for 3 strands"),
        (TLMorphism.cap, (1, 0), "cap position 0 out of range for 1 strands"),
        (TLMorphism.cup, (2, 3), "cup position 3 out of range for 2 strands"),
        (turnback, (2, 3), "turnback needs 0 <= i <= n, got i=3, n=2"),
    ])
    def test_out_of_range_is_refused(self, make, args, message):
        with pytest.raises(ValueError) as exc:
            make(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize("make, args, message", [
        (boxed, (TLMorphism.identity(2), 0, -1), "boxed width -1 is negative"),
        (boxed, (TLMorphism.identity(2), -1, 0), "boxed width -1 is negative"),
        (TLMorphism.identity, (-1,), "identity width -1 is negative"),
    ])
    def test_negative_width_is_refused(self, make, args, message):
        with pytest.raises(ValueError) as exc:
            make(*args)
        assert str(exc.value) == message

    def test_constructor_takes_numerators_over_a_denominator(self):
        m = TLMorphism(2, 0, {(1, 0): ONE}, {})
        assert m == TLMorphism.cap(2, 0)
        with pytest.raises(ValueError, match="odd total boundary 2\\+1"):
            TLMorphism(2, 1, {}, {})


# -- composition, tensor, closure -------------------------------------


class TestCompose:
    def test_identity_composes_to_identity(self):
        i2 = TLMorphism.identity(2)
        assert compose(i2, i2) == i2

    def test_hook_squares_to_delta_hook(self):
        e = TLMorphism.hook(2, 0)
        assert compose(e, e) == e.scaled(delta(1))

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError, match="compose"):
            compose(TLMorphism.identity(2), TLMorphism.identity(4))

    def test_tensor_of_identities(self):
        i1 = TLMorphism.identity(1)
        assert tensor(i1, i1) == TLMorphism.identity(2)

    def test_tensor_associative(self):
        rng = random.Random(7)
        pool = [
            TLMorphism.identity(1),
            TLMorphism.hook(2, 0),
            TLMorphism.cap(2, 0),
            TLMorphism.cup(1, 1),
            jones_wenzl(2),
        ]
        for _ in range(15):
            f, g, h = (rng.choice(pool) for _ in range(3))
            assert tensor(tensor(f, g), h) == tensor(f, tensor(g, h))

    def test_closure_of_strand_is_loop(self):
        assert closure(TLMorphism.identity(1)).to_poly() == delta(1)

    def test_closure_of_hook_is_loop(self):
        assert closure(TLMorphism.hook(2, 0)).to_poly() == delta(1)

    def test_closure_needs_equal_arities(self):
        with pytest.raises(ValueError, match="close"):
            closure(TLMorphism.cap(2, 0))


def glue_pair(p1, b1, t1, p2, b2, t2):
    """Glue the top of p1 (b1 -> t1) to the bottom of p2 (b2 -> t2): the
    schoolbook reference for ``compose``'s seam glue.

    Requires t1 == b2.  Returns (pair, loops) for the composite
    b1 -> t2 morphism, where loops counts closed circles swallowed in
    the middle.  Seam position p identifies p1 node b1 + t1-1-p with
    p2 node p.
    """
    out = [-1] * (b1 + t2)
    seen = bytearray(t1)  # seam nodes by p1-top offset
    for src in range(b1 + t2):
        if out[src] >= 0:
            continue
        if src < b1:
            side, node = 0, p1[src]
        else:
            side, node = 1, p2[b2 + (src - b1)]
        while True:
            if side == 0:
                if node < b1:
                    dst = node
                    break
                a = node - b1
                seen[a] = 1
                node = p2[t1 - 1 - a]
                side = 1
            else:
                if node >= b2:
                    dst = b1 + (node - b2)
                    break
                a = t1 - 1 - node
                seen[a] = 1
                node = p1[b1 + a]
                side = 0
        out[src] = dst
        out[dst] = src
    loops = 0
    for a0 in range(t1):
        if seen[a0]:
            continue
        loops += 1
        a = a0
        while not seen[a]:
            seen[a] = 1
            partner = p1[b1 + a] - b1
            seen[partner] = 1
            q = p2[t1 - 1 - partner]
            a = t1 - 1 - q
    return tuple(out), loops


def _school_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def schoolbook_compose(f: TLMorphism, g: TLMorphism) -> dict:
    """The numerators of compose(f, g) over vec_sum(f.den, g.den), before
    any factor is divided out, by a term-by-term dict loop."""
    acc: dict = {}
    for p1, c1 in f.nums.items():
        for p2, c2 in g.nums.items():
            pair, loops = glue_pair(p1, f.bot, f.top, p2, g.bot, g.top)
            c = _school_mul(c1.terms, c2.terms)
            for _ in range(loops):
                c = _school_mul(c, DELTA.terms)
            s = acc.setdefault(pair, {})
            for e, v in c.items():
                s[e] = s.get(e, 0) + v
    nums = {}
    for pair, s in acc.items():
        s = {e: v for e, v in s.items() if v}
        if s:
            nums[pair] = LaurentPoly(s)
    return nums


@st.composite
def planar_pairs(draw, n):
    """A non-crossing perfect matching of n boundary nodes."""
    pair = [0] * n

    def fill(lo, hi):
        while lo < hi:
            j = lo + 2 * draw(st.integers(0, (hi - lo) // 2 - 1)) + 1
            pair[lo], pair[j] = j, lo
            fill(lo + 1, j)
            lo = j + 1

    fill(0, n)
    return tuple(pair)


@st.composite
def morphisms(draw, bot, top, sign):
    """Up to four matchings with numerators of up to 6 terms (or monomials)
    on a lattice of step 1 or 2 and coefficients up to 2^200 of one sign,
    over a drawn denominator; no matchings at all is the zero morphism."""
    scale = draw(st.sampled_from((1, 2)))
    numerators = st.dictionaries(
        st.integers(-6, 6).map(lambda e: scale * e),
        st.integers(1, 2**200).map(lambda c: sign * c),
        min_size=1, max_size=draw(st.sampled_from((1, 6))),
    ).map(LaurentPoly)
    nums = draw(st.dictionaries(planar_pairs(bot + top), numerators, max_size=4))
    den = draw(st.dictionaries(st.integers(1, 6), st.integers(1, 2), max_size=2))
    for pair in nums:
        Matching(bot, top, pair)
    return TLMorphism._raw(bot, top, nums, den)


@st.composite
def composable(draw):
    mid = draw(st.integers(0, 6))
    bot = draw(st.integers(0, 3).map(lambda k: 2 * k + mid % 2))
    top = draw(st.integers(0, 3).map(lambda k: 2 * k + mid % 2))
    sign = draw(st.sampled_from((1, -1)))
    return (draw(morphisms(bot, mid, sign)),
            draw(morphisms(mid, top, draw(st.sampled_from((sign, -sign))))))


class TestComposeAgainstSchoolbook:
    @given(composable())
    @settings(max_examples=80, deadline=None)
    def test_matches_dict_loop(self, fg):
        f, g = fg
        got = compose(f, g)
        assert (got.bot, got.top) == (f.bot, g.top)
        full = vec_sum(f.den, g.den)
        want = schoolbook_compose(f, g)
        ref = TLMorphism._raw(f.bot, g.top, want, full)
        ref._strip()
        assert got.nums == ref.nums
        assert got.den == ref.den
        # the result is the schoolbook sum over the sum of the operands'
        # denominator vectors, less only the factors divided out of it
        assert all(0 < e <= full[d] for d, e in got.den.items())
        lift = phi_power({d: e - got.den.get(d, 0) for d, e in full.items()})
        assert {p: n * lift for p, n in got.nums.items()} == want

    @pytest.mark.parametrize("m", range(7))
    def test_nested_cups_and_caps_close_m_loops(self, m):
        # m loops, the most a 2m-point seam can close
        got = compose(cupnest(m), capnest(m))
        assert got.nums == {(): DELTA**m} and got.den == {}
        # c^2 fills its digits but for the sign bit, so the binomial
        # coefficients of delta^m need the 2^m of the width bound
        c = math.isqrt((1 << 199) - 1)
        got = compose(cupnest(m).scaled(c), capnest(m).scaled(c))
        assert got.nums == {(): (DELTA**m).scaled(c * c)}

    @pytest.mark.parametrize("m", range(1, 7))
    def test_fewer_loops_than_the_seam_allows(self, m):
        # m nested cups under m side-by-side caps close ceil(m/2) loops
        caps = TLMorphism._raw(2 * m, 0, {tuple(i ^ 1 for i in range(2 * m)): ONE}, {})
        assert compose(cupnest(m), caps).nums == {(): DELTA ** ((m + 1) // 2)}

    def test_zero_on_either_side(self):
        f2 = jones_wenzl(2)
        zero = TLMorphism.zero(2, 2)
        assert compose(zero, f2).is_zero() and compose(f2, zero).is_zero()
        assert compose(zero, f2).den == {}


def every_planar_pair(n):
    """Every non-crossing perfect matching of n boundary nodes."""

    def arcs(lo, hi):
        if lo == hi:
            yield ()
            return
        for j in range(lo + 1, hi, 2):
            for inner in arcs(lo + 1, j):
                for rest in arcs(j + 1, hi):
                    yield ((lo, j),) + inner + rest

    out = []
    for matching in (arcs(0, n) if n % 2 == 0 else ()):
        pair = [0] * n
        for i, j in matching:
            pair[i], pair[j] = j, i
        out.append(tuple(pair))
    return out


class TestSeamGlue:
    # (f.bot, seam, g.top): zero-width seams, odd widths, all cups below
    # or all caps above, and 8 points on a side
    @pytest.mark.parametrize("shape", [
        (0, 0, 0), (2, 0, 2), (8, 0, 4), (1, 1, 1), (3, 3, 3), (1, 7, 1),
        (7, 1, 7), (5, 3, 5), (3, 5, 1), (0, 8, 0), (0, 4, 8), (8, 4, 0),
        (2, 8, 2), (6, 6, 6), (8, 8, 0), (0, 8, 8),
    ])
    def test_every_pair_matches_the_schoolbook_glue(self, shape):
        fb, ft, gt = shape
        f_side, g_side = _seam_sides(fb, ft, gt)
        fs = [(p, _seam_view(p, *f_side)) for p in every_planar_pair(fb + ft)]
        gs = [(p, _seam_view(p, *g_side)) for p in every_planar_pair(ft + gt)]
        assert fs and gs
        for p1, fv in fs:
            for p2, gv in gs:
                assert (_seam_glue(fv, gv)
                        == glue_pair(p1, fb, ft, p2, ft, gt)), (p1, p2)


@st.composite
def closable(draw):
    """f: a -> b and g: b -> a, from ``morphisms``."""
    b = draw(st.integers(0, 6))
    a = draw(st.integers(0, 3).map(lambda k: 2 * k + b % 2))
    sign = draw(st.sampled_from((1, -1)))
    return (draw(morphisms(a, b, sign)),
            draw(morphisms(b, a, draw(st.sampled_from((sign, -sign))))))


def theta_pieces():
    """(c -> a+b, a+b -> c) pairs: clasped vertices and bare turns."""
    out = []
    for a, b, c in itertools.product(range(4), repeat=3):
        if a + b + c and admissible(a, b, c):
            out.append((vertex_morphism(a, b, c, "down"),
                        vertex_morphism(a, b, c, "up")))
            out.append((planar_module._turn(a, b, c, "down"),
                        planar_module._turn(a, b, c, "up")))
    return out


class TestSeamClosure:
    """``seam_closure(f, g)`` against ``closure(compose(f, g))``."""

    @staticmethod
    def agree(f, g):
        got = seam_closure(f, g)
        assert got == closure(compose(f, g))
        assert got == seam_closure(g, f)  # the trace is cyclic
        return got

    @pytest.mark.parametrize("n", range(5))
    def test_projector_against_itself(self, n):
        f = jones_wenzl(n)
        assert self.agree(f, f).to_poly() == delta(n)

    def test_one_matching_sides(self):
        cap = boxed(TLMorphism.cap(2, 0), 1, 1)
        cup = boxed(TLMorphism.cup(0, 0), 1, 1)
        x = crossing_morphism(-1)
        pairs = [
            (cap, cup), (cap, compose(jones_wenzl(2), cup)),
            (compose(jones_wenzl(4), cap), cup),
            (TLMorphism.hook(3, 1), jones_wenzl(3)),
            (TLMorphism.hook(4, 0), TLMorphism.hook(4, 2)),
            (x, crossing_morphism(1)), (x, jones_wenzl(2)),
            (boxed(x, 1, 0), jones_wenzl(3)),
            (capnest(3), cupnest(3)), (cupnest(2), capnest(2)),
        ]
        for f, g in pairs:
            self.agree(f, g)

    def test_theta_pieces(self):
        pieces = theta_pieces()
        assert any(f.bot != f.top for f, _ in pieces)
        for f, g in pieces:
            self.agree(f, g)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_ring_columns(self, n):
        columns = [quarter_turn(channel_element(n, p)) for p in (0, n)]
        columns += [quarter_turn(_clasped_column(n, k)) for k in (0, 1)]
        for f, g in itertools.combinations(columns, 2):
            self.agree(f, g)

    def test_zero_morphisms(self):
        f2 = jones_wenzl(2)
        for f, g in ((TLMorphism.zero(2, 2), f2), (f2, TLMorphism.zero(2, 2)),
                     (TLMorphism.zero(4, 2), boxed(TLMorphism.cup(0, 0), 1, 1)),
                     (TLMorphism.zero(0, 0), TLMorphism.zero(0, 0))):
            assert self.agree(f, g) == RationalFn.from_poly(ZERO)

    def test_empty_seams_close_nothing(self):
        one = TLMorphism.identity(0)
        assert self.agree(one, one).to_poly() == ONE
        assert self.agree(one.scaled(3), one.scaled(-2)).to_poly() == LaurentPoly({0: -6})

    @given(closable())
    @settings(max_examples=60, deadline=None)
    def test_matches_closure_of_the_composite(self, fg):
        self.agree(*fg)

    def test_mismatched_shapes_raise(self):
        cap = boxed(TLMorphism.cap(2, 0), 1, 1)
        for f, g in ((TLMorphism.identity(2), TLMorphism.identity(4)),
                     (cap, cap), (cap, TLMorphism.identity(2))):
            with pytest.raises(ValueError, match="close"):
                seam_closure(f, g)

    @pytest.mark.parametrize("suite,check", [
        ("tl-identities", "theta networks match the closed form"),
        ("oracle-equivalence", "fused channels match the clasped state sum"),
    ])
    def test_the_checks_see_a_wrong_closed_seam(self, suite, check,
                                                monkeypatch):
        (run,) = [fn for name, fn in cli._SUITES[suite]() if name == check]
        assert run()[0]
        real = planar_module.seam_closure
        monkeypatch.setattr(planar_module, "seam_closure",
                            lambda f, g: real(f, g) * rf(DELTA))
        assert not run()[0]


class TestPackedCancellation:
    def test_cancels_without_polynomial_division(self, monkeypatch):
        # f f = f for the projector: the sum's denominator is f's twice,
        # and half of it cancels on the packed sums
        f = jones_wenzl(4)

        def refuse(nums, den):
            raise AssertionError("compose divided as polynomials")

        monkeypatch.setattr(planar_module, "divide_out", refuse)
        assert f.den and compose(f, f) == f

    def test_quotient_past_the_digits_takes_divide_out(self, monkeypatch):
        # with x = A^4, (1 - x^8)^8 / (x - 1)^8 = (1 + x + ... + x^7)^8:
        # the sum fits 2-byte digits, its quotient (middle coefficient
        # 1,012,664) does not, so the packed quotient is refused
        f = TLMorphism._raw(2, 2, {idpair(2): ONE}, {1: 8})
        g = TLMorphism._raw(2, 2, {idpair(2): LaurentPoly({0: 1, 32: -1}) ** 8}, {})
        calls = []

        def counting(nums, den):
            calls.append(dict(den))
            return divide_out(nums, den)

        monkeypatch.setattr(planar_module, "divide_out", counting)
        got = compose(f, g)
        assert calls == [{1: 8}]
        assert got.den == {}
        assert got.nums == {idpair(2): LaurentPoly({4 * i: 1 for i in range(8)}) ** 8}
        ref = TLMorphism._raw(2, 2, schoolbook_compose(f, g), {1: 8})
        ref._strip()
        assert (got.nums, got.den) == (ref.nums, ref.den)


# -- Jones-Wenzl projectors --------------------------------------------


class TestJonesWenzl:
    def test_first_projector_is_strand(self):
        assert jones_wenzl(1) == TLMorphism.identity(1)

    def test_second_projector_expansion(self):
        expect = TLMorphism.identity(2) + TLMorphism.hook(2, 0).scaled(
            RationalFn(LaurentPoly({0: 1}), LaurentPoly({2: 1, -2: 1}))
        )
        assert jones_wenzl(2) == expect

    def test_third_projector_has_all_catalan_matchings(self):
        assert len(jones_wenzl(3).nums) == 5

    @pytest.mark.parametrize("n", range(1, 7))
    def test_idempotent(self, n):
        f = jones_wenzl(n)
        assert compose(f, f) == f

    @pytest.mark.parametrize("n", range(2, 7))
    def test_hook_annihilation(self, n):
        f = jones_wenzl(n)
        for i in range(n - 1):
            cap = boxed(TLMorphism.cap(2, 0), i, n - i - 2)
            assert compose(f, cap).is_zero()
            cup = boxed(TLMorphism.cup(0, 0), i, n - i - 2)
            assert compose(cup, f).is_zero()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_closure_is_loop_value(self, n):
        assert closure(jones_wenzl(n)).to_poly() == delta(n)

    def test_identity_coefficient_is_one(self):
        for n in range(1, 7):
            f = jones_wenzl(n)
            ident = tuple(2 * n - 1 - i for i in range(2 * n))
            assert f.coeff(ident) == rf(ONE)

    def test_memoized(self):
        f = jones_wenzl(4)
        hits = jones_wenzl.cache_info().hits
        assert jones_wenzl(4) is f
        assert jones_wenzl.cache_info().hits == hits + 1

    def test_tensor_of_strands_is_not_projector(self):
        assert tensor(jones_wenzl(1), jones_wenzl(1)) != jones_wenzl(2)

    @pytest.mark.parametrize("m,k", [(1, 1), (1, 2), (2, 2), (2, 3), (1, 4), (3, 3)])
    def test_absorption(self, m, k):
        big = jones_wenzl(m + k)
        small = tensor(jones_wenzl(m), jones_wenzl(k))
        assert compose(small, big) == big
        assert compose(big, small) == big


# -- trivalent vertices and closed networks ----------------------------


class TestVertex:
    def test_simple_vertex_single_term(self):
        v = vertex_morphism(1, 1, 2, "up")
        assert v.bot == 2 and v.top == 2
        assert v == jones_wenzl(2)

    def test_inadmissible_vertex_raises(self):
        with pytest.raises(AdmissibilityError):
            vertex_morphism(1, 1, 3)

    def test_zero_leg_vertex_is_capnest(self):
        v = vertex_morphism(1, 1, 0, "up")
        assert v == capnest(1)
        assert vertex_morphism(1, 1, 0, "down") == cupnest(1)


THETA_TRIPLES = [
    (a, b, c)
    for a in range(5)
    for b in range(a + 1)
    for c in range(b + 1)
    if (a, b, c) != (0, 0, 0)
    and (a + b + c) % 2 == 0
    and a <= b + c
]


class TestThetaNetworks:
    @pytest.mark.parametrize("a,b,c", THETA_TRIPLES)
    def test_theta_program_matches_closed_form(self, a, b, c):
        assert theta_network(a, b, c) == rf(theta(a, b, c))

    def test_all_odd_internal_theta_is_rational(self):
        val = theta_network(2, 2, 2)
        assert not val.den.is_one()
        assert val == rf(theta(2, 2, 2))

    def test_theta_of_zero_edge_is_loop_value(self):
        for n in (1, 2, 3):
            assert theta_network(n, n, 0).to_poly() == delta(n)

    def test_one_projector_per_edge_matches_clasped_vertices(self):
        triples = [t for t in itertools.product(range(4), repeat=3)
                   if any(t) and admissible(*t)]
        assert len(triples) == 22
        for t in triples:
            assert theta_network(*t) == clasped_theta(*t), t


TET_SMALL = [
    colors
    for colors in itertools.product(range(4), repeat=6)
    if all(
        (sum(t) % 2 == 0 and max(t) * 2 <= sum(t))
        for t in (
            (colors[0], colors[1], colors[2]),
            (colors[1], colors[3], colors[5]),
            (colors[3], colors[4], colors[2]),
            (colors[0], colors[4], colors[5]),
        )
    )
]


class TestTetNetworks:
    def test_small_grid_matches_closed_form(self):
        # exhaustive colors <= 3: 181 admissible labelings
        assert len(TET_SMALL) == 181
        for a, b, e, c, d, f in TET_SMALL:
            net = tet_network(a, b, e, c, d, f)
            assert net == tet(a, b, e, c, d, f), (a, b, e, c, d, f)

    def test_one_projector_per_edge_matches_clasped_vertices(self):
        small = [c for c in TET_SMALL if max(c) <= 2]
        assert len(small) == 47
        for colors in small:
            assert tet_network(*colors) == clasped_tet(*colors), colors

    @pytest.mark.parametrize("n", (1, 2))
    def test_channel_family(self, n):
        for p, q in itertools.product(range(n + 1), repeat=2):
            colors = (n, n, 2 * p, n, n, 2 * q)
            assert tet_network(*colors) == tet(*colors)

    def test_larger_spot_checks(self):
        for colors in ((2, 3, 5, 4, 3, 3), (4, 4, 4, 4, 4, 4), (5, 3, 4, 3, 5, 2)):
            assert tet_network(*colors) == tet(*colors)

    def test_formula_symmetry(self):
        # relabelings induced by permuting the four vertices
        # V1=(a,b,e) V2=(b,c,f) V3=(c,d,e) V4=(a,d,f)
        base = (1, 2, 1, 2, 3, 2)
        a, b, e, c, d, f = base
        images = [
            (c, b, f, a, d, e),   # (V1 V2)(V3 V4)
            (d, c, e, b, a, f),   # (V1 V3)
            (b, c, f, d, a, e),   # (V1 V2 V3 V4)
        ]
        val = tet(*base)
        for img in images:
            assert tet(*img) == val, img

    def test_zero_edge_collapse_to_theta(self):
        for a, b, e in ((1, 1, 2), (2, 2, 2), (3, 1, 2), (2, 2, 4)):
            assert tet(a, b, e, b, a, 0) == rf(theta(a, b, e))

    def test_inadmissible_raises(self):
        with pytest.raises(AdmissibilityError):
            tet(1, 1, 3, 1, 1, 0)


# -- crossings, cables, fusion -----------------------------------------


class TestCrossings:
    def test_kauffman_expansion_shape(self):
        x = crossing_morphism(-1)
        assert len(x.nums) == 2

    def test_region_crossing_channel_eigenvalues(self):
        x = crossing_morphism(-1)
        e = TLMorphism.hook(2, 0)
        assert compose(x, e) == e.scaled(twist_coeff(1, 1, 0))
        f2 = jones_wenzl(2)
        assert compose(x, f2) == f2.scaled(twist_coeff(1, 1, 2))

    def test_signs_are_mirror_inverses(self):
        x, y = crossing_morphism(-1), crossing_morphism(1)
        assert compose(x, y) == TLMorphism.identity(2)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_colored_kauffman_relation(self, n):
        ff = tensor(jones_wenzl(n), jones_wenzl(n))
        x = compose(compose(ff, cabled_crossing(n, -1)), ff)
        acc = TLMorphism.zero(2 * n, 2 * n)
        for i in range(n + 1):
            smoothing = compose(compose(ff, turnback(n, i)), ff)
            acc = acc + smoothing.scaled(fusion_coeff(n, i))
        assert x == acc

    @pytest.mark.parametrize("n", (1, 2))
    def test_fusion_completeness(self, n):
        ff = tensor(jones_wenzl(n), jones_wenzl(n))
        acc = TLMorphism.zero(2 * n, 2 * n)
        for p in range(n + 1):
            w = rf(delta(2 * p)) / rf(theta(n, n, 2 * p))
            acc = acc + channel_element(n, p).scaled(w)
        assert acc == ff

    def test_fusion_completeness_under_markov_closure(self):
        for n in (1, 2, 3):
            total = rf(ZERO)
            for p in range(n + 1):
                w = rf(delta(2 * p)) / rf(theta(n, n, 2 * p))
                total = total + w * closure(channel_element(n, p))
            two_cables = tensor(jones_wenzl(n), jones_wenzl(n))
            assert total == closure(two_cables)

    @pytest.mark.parametrize("n", (1, 2))
    def test_vertical_fusion_of_twist_regions(self, n):
        ff = tensor(jones_wenzl(n), jones_wenzl(n))
        xk = ff
        for k in (1, 2, 3):
            xk = compose(xk, cabled_crossing(n, -1))
            acc = TLMorphism.zero(2 * n, 2 * n)
            for p in range(n + 1):
                w = rf(delta(2 * p)) / rf(theta(n, n, 2 * p))
                mu = twist_coeff(n, n, 2 * p)
                acc = acc + channel_element(n, p).scaled(w * rf(mu**k))
            assert compose(xk, ff) == acc, (n, k)

    def test_channel_elements_are_orthogonal_idempotents_up_to_scale(self):
        for n in (1, 2):
            for p in range(n + 1):
                tp = channel_element(n, p)
                th = rf(theta(n, n, 2 * p)) / rf(delta(2 * p))
                assert compose(tp, tp) == tp.scaled(th)
                for q in range(p):
                    assert compose(tp, channel_element(n, q)).is_zero()

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_cabled_curl_values(self, n):
        f = jones_wenzl(n)
        curls = {}
        for sign in (-1, 1):
            lifted = compose(f, boxed(cupnest(n), n, 0))
            crossed = compose(lifted, boxed(cabled_crossing(n, sign), 0, n))
            curls[sign] = compose(crossed, boxed(capnest(n), n, 0))
        m = n * n + 2 * n
        sgn = -1 if n % 2 else 1
        vals = {
            s: f.scaled(LaurentPoly.monomial(e, sgn)) for s, e in ((-1, -m), (1, m))
        }
        assert curls == vals


def curl_factor(n: int, sign: int) -> LaurentPoly:
    m = n * n + 2 * n
    return LaurentPoly.monomial(sign * m, -1 if n % 2 else 1)


def kink_word(n: int, signs) -> TLMorphism:
    """``cabled_kink``'s construction with the crossings' signs given one
    by one, in the order it composes them."""
    signs = iter(signs)
    out = boxed(cupnest(n), n, 0)
    w = 3 * n
    for s in range(n - 1, -1, -1):
        for j in range(s, s + n):
            out = compose(out, boxed(crossing_morphism(next(signs)), j, w - j - 2))
        out = compose(out, boxed(TLMorphism.cap(2, 0), s + n, w - s - n - 2))
        w -= 2
    return out


class TestCabledKink:
    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    @pytest.mark.parametrize("sign", (-1, 1))
    def test_equals_the_kink_through_the_cabled_crossing(self, n, sign):
        # the cable turns up through n nested cups, crosses its return
        # bundle as one cabled crossing, and closes through n nested caps
        kink = compose(boxed(cupnest(n), n, 0), boxed(cabled_crossing(n, sign), 0, n))
        kink = compose(kink, boxed(capnest(n), n, 0))
        assert cabled_kink(n, sign) == kink

    @pytest.mark.parametrize("sign", (-1, 1))
    def test_curl_factor_at_color_five(self, sign):
        f = jones_wenzl(5)
        assert compose(cabled_kink(5, sign), f) == f.scaled(curl_factor(5, sign))

    def test_no_stage_holds_more_than_catalan_n_plus_one(self, monkeypatch):
        seen = []

        def counted(f, g):
            out = compose(f, g)
            seen.append(len(out.nums))
            return out

        monkeypatch.setattr(planar_module, "compose", counted)
        for n in (3, 4, 5):
            seen.clear()
            cabled_kink(n, -1)
            assert max(seen) == math.comb(2 * n + 2, n + 1) // (n + 2)

    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("sign", (-1, 1))
    def test_one_crossing_of_the_other_sign_breaks_the_identity(self, n, sign):
        assert kink_word(n, [sign] * n * n) == cabled_kink(n, sign)
        f = jones_wenzl(n)
        want = f.scaled(curl_factor(n, sign))
        for flip in range(n * n):
            signs = [sign] * n * n
            signs[flip] = -sign
            assert compose(kink_word(n, signs), f) != want, flip

    def test_needs_a_strand(self):
        with pytest.raises(ValueError, match="n >= 1"):
            cabled_kink(0, 1)


# -- pretzel-shaped networks -------------------------------------------


class TestDrum:
    def test_needs_rungs(self):
        with pytest.raises(ValueError):
            drum(1, [])

    def test_odd_rung_color_rejected(self):
        with pytest.raises(AdmissibilityError):
            drum(1, [1])

    def test_inadmissible_rung_rejected(self):
        with pytest.raises(AdmissibilityError):
            drum(1, [4])

    @pytest.mark.parametrize("n", (1, 2))
    def test_single_rung_dumbbell(self, n):
        # one column closes onto itself: only the turn-back channel survives
        for p in range(n + 1):
            v = drum(n, [2 * p])
            want = delta(n) * delta(n) if p == 0 else ZERO
            assert v.to_poly() == want

    @pytest.mark.parametrize("n", (1, 2))
    @pytest.mark.parametrize("r", (1, 2, 3))
    def test_all_zero_rungs_leave_two_cycles(self, n, r):
        assert drum(n, [0] * r).to_poly() == delta(n) * delta(n)

    @pytest.mark.parametrize("n", (1, 2))
    def test_matches_channel_mixing_sum(self, n):
        ys = [
            [rf(tet(n, n, 2 * p, n, n, 2 * q)) / rf(theta(n, n, 2 * q))
             for q in range(n + 1)]
            for p in range(n + 1)
        ]
        for r in (1, 2, 3):
            for tup in itertools.product(range(n + 1), repeat=r):
                want = rf(ZERO)
                for q in range(n + 1):
                    term = rf(delta(2 * q))
                    for p in tup:
                        term = term * ys[p][q]
                    want = want + term
                assert drum(n, [2 * p for p in tup]) == want, (n, tup)

    def test_frozen_three_rung_value(self):
        d2 = delta(2)
        num = d2 * LaurentPoly({4: 1, -4: 1})
        assert drum(1, [2, 2, 2]) == RationalFn(num, delta(1))


class TestQuarterTurn:
    """``close_ring`` against the plat closure built at full width."""

    @staticmethod
    def column(n, rng):
        # an integer combination of the channel elements, no weight zero
        return functools.reduce(operator.add, (
            channel_element(n, p).scaled(rng.choice((-3, -2, -1, 1, 2, 3)))
            for p in range(n + 1)))

    def test_turns_identity_into_hook(self):
        assert quarter_turn(TLMorphism.identity(2)) == TLMorphism.hook(2, 0)

    @pytest.mark.parametrize("n", (1, 2))
    def test_two_turns_rotate_and_four_restore(self, n):
        m = self.column(n, random.Random(n))
        half = quarter_turn(quarter_turn(m))
        assert quarter_turn(quarter_turn(half)) == m
        assert half == m  # a channel element is symmetric under rotation

    @pytest.mark.parametrize("n", (1, 2))
    @pytest.mark.parametrize("r", (1, 2, 3, 4))
    def test_ring_matches_plat_program(self, n, r):
        cols = [self.column(n, random.Random(10 * n + i)) for i in range(r)]
        assert close_ring(cols) == plat_close(cols, n)

    @pytest.mark.parametrize("r", (1, 2, 3))
    def test_ring_of_unsymmetric_columns(self, r):
        # channel elements look the same turned half way round; words in
        # the hooks on four strands mostly do not, so these pin which way
        # the columns turn and stack
        rng = random.Random(r)
        for _ in range(3):
            cols = []
            for _ in range(r):
                col = TLMorphism.zero(4, 4)
                for _ in range(3):
                    word = TLMorphism.identity(4)
                    for _ in range(rng.randint(1, 3)):
                        word = compose(word, TLMorphism.hook(4, rng.randrange(3)))
                    col = col + word.scaled(rng.choice((-2, -1, 1, 2)))
                cols.append(col)
            assert close_ring(cols) == plat_close(cols, 2), r

    @pytest.mark.parametrize("n", (1, 2))
    def test_trace_matches_plat_program(self, n):
        # a column closed around its side is the ring of it and the
        # identity on its cables, here JW_n (x) JW_n
        rng = random.Random(n)
        ff = tensor(jones_wenzl(n), jones_wenzl(n))
        for _ in range(3):
            col = self.column(n, rng)
            assert close_ring([col, ff]) == plat_close([col], n, "trace")

    def test_ring_needs_a_column(self):
        with pytest.raises(ValueError, match="at least one column"):
            close_ring([])

    def test_needs_an_even_square_morphism(self):
        with pytest.raises(ValueError, match="turn"):
            quarter_turn(TLMorphism.identity(3))
        with pytest.raises(ValueError, match="turn"):
            quarter_turn(capnest(1))


def pretzel_network(ks):
    """Raw-crossing pretzel bracket at cable width 1, one column per count."""
    x = crossing_morphism(-1)
    return close_ring([functools.reduce(compose, [x] * k, TLMorphism.identity(2))
                       for k in ks])


class TestPretzelFusion:
    """Raw plat evaluation against the fused channel formula, n = 1."""

    def fused(self, ks, n=1):
        ys = [
            [rf(tet(n, n, 2 * p, n, n, 2 * q)) / rf(theta(n, n, 2 * q))
             for q in range(n + 1)]
            for p in range(n + 1)
        ]
        ws = [rf(delta(2 * p)) / rf(theta(n, n, 2 * p)) for p in range(n + 1)]
        mus = [twist_coeff(n, n, 2 * p) for p in range(n + 1)]
        total = rf(ZERO)
        for q in range(n + 1):
            prod = rf(delta(2 * q))
            for k in ks:
                b = rf(ZERO)
                for p in range(n + 1):
                    b = b + ws[p] * rf(mus[p] ** k) * ys[p][q]
                prod = prod * b
            total = total + prod
        return total

    @pytest.mark.parametrize(
        "ks",
        [(1,), (3,), (1, 1), (2, 3), (1, 1, 1), (2, 2, 2), (2, 3, 2),
         (8, 6, 2), (2, 0, 3), (0, 0, 0), (1, 2, 3, 4), (2, 2, 2, 2)],
    )
    def test_raw_equals_fused(self, ks):
        assert pretzel_network(list(ks)) == self.fused(list(ks))

    def test_trefoil_value(self):
        got = pretzel_network([1, 1, 1]).to_poly()
        assert got == LaurentPoly({7: 1, 3: 1, -1: 1, -9: -1})

    def test_unlink_value(self):
        assert pretzel_network([0, 0, 0]).to_poly() == delta(1) ** 3

    def test_torus_link_collapse(self):
        # a two-region pretzel is the (2, k1+k2) torus link
        for k1, k2 in ((1, 2), (2, 2), (3, 4)):
            a = pretzel_network([k1, k2])
            b = pretzel_network([k1 + k2, 0])
            # the k=0 region leaves a loop-free clasped pass-through
            assert a == b, (k1, k2)


# -- slices of a closed network ---------------------------------------


class TestSlicePrograms:
    def test_commuting_slices_reorder_freely(self):
        # a network is a stack of slices, each one generator boxed in
        # identity wires; slices at disjoint positions commute
        rng = random.Random(23)
        width = 8
        cups = functools.reduce(compose, (boxed(cupnest(1), i, i)
                                          for i in range(width // 2)))
        caps = functools.reduce(compose, (boxed(capnest(1), 2 * i, 0)
                                          for i in range(width // 2 - 1, -1, -1)))

        def value(body):
            net = cups
            for g, pos in body:
                net = compose(net, boxed(g, pos, width - pos - 2))
            return closure(compose(net, caps))

        for _ in range(12):
            body = []
            for _ in range(6):
                kind = rng.choice(["crossing", "projector", "hook"])
                pos = rng.randrange(width - 2)
                if kind == "crossing":
                    body.append((crossing_morphism(rng.choice((-1, 1))), pos))
                elif kind == "projector":
                    body.append((jones_wenzl(2), pos))
                else:
                    body.append((TLMorphism.hook(2, 0), pos))
            # swap the first adjacent commuting pair in the body
            for j in range(len(body) - 1):
                pa, pb = body[j][1], body[j + 1][1]
                if pa + 2 <= pb or pb + 2 <= pa:
                    swapped = list(body)
                    swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
                    assert value(body) == value(swapped)
                    break
