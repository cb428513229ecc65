"""Diagram construction, states, adequacy graphs, and recorded sides."""

import itertools
import json
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skeinkit.diagram as diagram_module
from skeinkit import (
    DiagramError,
    LinkDiagram,
    PDSyntaxError,
    State,
    TwistRegion,
    apply_state,
    colored_bracket_fused,
    is_adequate,
    is_minus_adequate,
    minus_graph,
    parse_pd,
    plus_graph,
    pretzel,
    reduced_minus_graph,
    relabel_arcs,
)

UNKNOT = LinkDiagram((), free_loops=1)


def pd_text(diagram: LinkDiagram) -> str:
    body = ",".join("X[%d,%d,%d,%d]" % x for x in diagram.crossings)
    return f"PD[{body}]"


def is_alternating(diagram: LinkDiagram) -> bool:
    """Each arc must leave one crossing over and enter the next under.

    Slots 0 and 2 lie on the under-strand, 1 and 3 on the over-strand, so
    an arc alternates exactly when its two occurrences have different slot
    parities.
    """
    parity: dict[int, list[int]] = {}
    for x in diagram.crossings:
        for slot, arc in enumerate(x):
            parity.setdefault(arc, []).append(slot % 2)
    return all(sorted(p) == [0, 1] for p in parity.values())


def graph_canon(graph):
    """Canonical form of a small multigraph under vertex permutation."""
    n = graph.vertex_count
    edges = [(u, v) for u, v, _ in graph.edges]
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or key < best:
            best = key
    return (n, best)


class TestValidation:
    def test_arc_label_appearing_three_times(self):
        with pytest.raises(DiagramError, match="exactly twice"):
            LinkDiagram(((1, 1, 2, 2), (2, 3, 3, 4)))

    def test_non_integer_arc_label_is_refused(self):
        # 1.9 is refused, not truncated to arc 1
        with pytest.raises(TypeError):
            LinkDiagram.from_json({"crossings": [[1.9, 1, 2, 2]], "regions": []})

    def test_crossing_needs_four_labels(self):
        with pytest.raises(DiagramError, match="4 arc labels"):
            LinkDiagram(((1, 2, 3),))  # type: ignore[arg-type]

    def test_duplicate_region_ids(self):
        with pytest.raises(DiagramError, match="duplicate"):
            LinkDiagram(
                ((1, 1, 2, 2), (3, 3, 4, 4)),
                (TwistRegion(1, (0,), 1), TwistRegion(1, (1,), 1)),
            )

    def test_regions_must_be_disjoint(self):
        with pytest.raises(DiagramError, match="two twist regions"):
            LinkDiagram(
                ((1, 1, 2, 2),),
                (TwistRegion(1, (0,), 1), TwistRegion(2, (0,), 1)),
            )

    def test_count_must_match_chain_length(self):
        with pytest.raises(DiagramError, match="declares"):
            LinkDiagram(((1, 1, 2, 2),), (TwistRegion(1, (0,), 2),))

    def test_positive_bigon_is_not_a_twist_region(self):
        # In the mirror trefoil crossings 0 and 1 share arcs {1, 4} but
        # only through B-pairs, so stacking them is a positive twist and
        # must be rejected.
        crossings = ((1, 5, 2, 4), (3, 1, 4, 6), (5, 3, 6, 2))
        with pytest.raises(DiagramError, match="negative-twist bigon"):
            LinkDiagram(crossings, (TwistRegion(1, (0, 1), 2),))
        LinkDiagram(crossings)  # fine without the bogus region

    def test_free_loops_nonnegative(self):
        with pytest.raises(DiagramError, match="free_loops"):
            LinkDiagram((), free_loops=-1)

    @pytest.mark.parametrize("loops", [1.5, True])
    def test_free_loops_must_be_an_int(self, loops):
        # operator.index reads True as 1
        with pytest.raises(TypeError, match="free_loops"):
            LinkDiagram((), free_loops=loops)


# V - E + F = 0 for both: drawings on the torus, not in the plane
TORUS_CODES = (
    "PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,2],X[4,7,3,8]]",
    "PD[X[1,2,3,4],X[1,2,3,4]]",
)


class TestPlanarity:
    def test_every_small_pretzel_is_planar(self):
        # 1 to 5 columns of 0 to 3 crossings each, with at least one crossing
        every = [counts for r in range(1, 6)
                 for counts in itertools.product(range(4), repeat=r) if any(counts)]
        assert len(every) == 1359
        for counts in every:
            pretzel(counts)  # builds, so passes the check

    @pytest.mark.parametrize("text", [
        "PD[]",
        "PD[X[1,1,2,2]]",
        "PD[X[1,2,3,4],X[1,4,3,2]]",  # the Hopf link
        "PD[X[1,2,3,4],X[1,4,3,2],X[5,6,7,8],X[5,8,7,6]]",  # two, split
        "PD[X[1,4,2,5],X[3,6,4,7],X[5,2,6,3],X[7,10,8,11],X[9,12,10,1],"
        "X[11,8,12,9]]",  # two trefoils summed
    ])
    def test_planar_codes_are_accepted(self, text):
        assert parse_pd(text).crossings == diagram_module._parse_pd_text(text)

    @pytest.mark.parametrize("text", TORUS_CODES)
    def test_torus_codes_are_refused_at_every_entry(self, text):
        crossings = diagram_module._parse_pd_text(text)
        with pytest.raises(DiagramError, match="does not draw a planar diagram"):
            parse_pd(text)
        with pytest.raises(DiagramError, match="planar"):
            LinkDiagram(crossings)
        with pytest.raises(DiagramError, match="planar"):
            LinkDiagram.from_json({"crossings": [list(x) for x in crossings]})

    def test_each_part_is_checked(self):
        # a planar Hopf link beside a torus part: the faces of the whole
        # fall short of V + 2 per part
        with pytest.raises(DiagramError, match="planar"):
            parse_pd("PD[X[1,2,3,4],X[1,4,3,2],X[5,6,7,8],X[5,6,7,8]]")


class TestPretzel:
    def test_one_crossing_unknot_shape(self):
        d = pretzel([1])
        assert d.crossing_count == 1
        x = d.crossings[0]
        assert x[0] == x[1] and x[2] == x[3]  # the X[1,1,2,2] pattern

    def test_trefoil_counts(self):
        d = pretzel([1, 1, 1])
        assert d.crossing_count == 3
        assert len(d.twist_regions) == 3
        assert [r.count for r in d.twist_regions] == [1, 1, 1]

    def test_large_pretzel_is_alternating(self):
        d = pretzel([8, 6, 3])
        assert d.crossing_count == 17
        assert is_alternating(d)
        assert [r.count for r in d.twist_regions] == [8, 6, 3]
        for reg in d.twist_regions:
            assert list(reg.crossings) == sorted(reg.crossings)

    def test_every_positive_pretzel_is_alternating(self):
        for counts in ([2, 3], [1, 2, 3], [4, 1, 1, 2], [5]):
            assert is_alternating(pretzel(counts))

    def test_zero_region_is_materialized(self):
        d = pretzel([2, 0, 2])
        assert d.crossing_count == 4
        reg = d.region(2)
        assert reg.count == 0 and reg.crossings == ()
        assert d.sides[2] is None
        assert d.free_loops == 0

    def test_a_zero_run_rests_on_its_first_column(self):
        # the columns beside a run close their sides on it, and each
        # connector inside the run is a free loop
        d = pretzel([3, 0, 0, 0, 2])
        assert [s is None for s in d.sides.values()] == [
            False, True, True, True, False]
        assert_closed_beside_zeros(d)
        assert d.crossing_count == 5 and d.free_loops == 2
        # a run may wrap around the end of the ring
        d = pretzel([0, 2, 0])
        bl, tl, br, tr = d.sides[2]
        assert bl == tl and br == tr
        assert d.free_loops == 1

    def test_all_zero_pretzel_is_unlink(self):
        d = pretzel([0, 0, 0])
        assert d.crossing_count == 0
        assert d.free_loops == 3
        assert [r.count for r in d.twist_regions] == [0, 0, 0]

    def test_single_zero_region(self):
        d = pretzel([0])
        assert d.crossing_count == 0 and d.free_loops == 1

    def test_name(self):
        assert pretzel([8, 6, 3]).name == "P(8,6,3)"
        assert pretzel([2], name="clasp").name == "clasp"

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DiagramError, match="at least one"):
            pretzel([])
        with pytest.raises(DiagramError, match="nonnegative"):
            pretzel([2, -1])

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_layout(self, counts):
        want = reference_positive_pretzel(counts)
        label = "P(" + ",".join(map(str, counts)) + ")"
        assert pretzel(counts).to_json() == replace(want, name=label).to_json()
        assert (pretzel(counts, name="x").to_json()
                == replace(want, name="x").to_json())

    @pytest.mark.parametrize("counts,builds", [([8, 6, 3], 1), ([2, 0, 3], 1)])
    def test_validations_per_build(self, monkeypatch, counts, builds):
        # a zero column adds no validation of its own, so one build each
        built: list[LinkDiagram] = []
        validate = LinkDiagram._validate

        def counted_validate(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(LinkDiagram, "_validate", counted_validate)
        pretzel(counts)
        assert len(built) == builds


def reference_positive_pretzel(counts) -> LinkDiagram:
    """Every column laid out inline: the reference for ``pretzel``.

    Connector arcs: t[i] joins the tops of regions i and i+1 (cyclically),
    b[i] the bottoms.  Region i's crossing j is [l(j-1), r(j-1), r(j), l(j)]
    with the left column running from b[i-1] up to t[i-1] and the right
    from b[i] to t[i].
    """
    r = len(counts)
    t = [2 * i + 1 for i in range(r)]
    b = [2 * i + 2 for i in range(r)]
    nxt = 2 * r + 1
    crossings = []
    regions = []
    for i, k in enumerate(counts):
        left = [b[(i - 1) % r]]
        right = [b[i]]
        for _ in range(k - 1):
            left.append(nxt)
            right.append(nxt + 1)
            nxt += 2
        left.append(t[(i - 1) % r])
        right.append(t[i])
        first = len(crossings)
        for j in range(k):
            crossings.append((left[j], right[j], right[j + 1], left[j + 1]))
        regions.append(TwistRegion(i + 1, tuple(range(first, first + k)), k))
    return LinkDiagram(tuple(crossings), tuple(regions))


class TestParsePD:
    def test_hopf_auto_detects_one_region(self):
        d = parse_pd("PD[X[1,4,2,3],X[3,2,4,1]]")
        assert d.crossing_count == 2
        assert len(d.twist_regions) == 1
        assert d.twist_regions[0].crossings == (0, 1)

    def test_arity_error(self):
        with pytest.raises(PDSyntaxError, match="4 arc labels"):
            parse_pd("PD[X[1,2,3]]")

    def test_curl_is_valid(self):
        d = parse_pd("PD[X[1,1,2,2]]")
        assert d.crossing_count == 1
        assert len(d.twist_regions) == 1

    def test_position_reporting(self):
        with pytest.raises(PDSyntaxError, match="position 0"):
            parse_pd("QD[X[1,1,2,2]]")
        err = None
        try:
            parse_pd("PD[X[1,1,2,a]]")
        except PDSyntaxError as e:
            err = e
        assert err is not None and err.position == 11

    @pytest.mark.parametrize("text", ["PD[X[1,1,2,²]]", "PD[X[1,1,2,٢]]"])
    def test_non_ascii_digit_is_refused(self, text):
        # str.isdigit takes "²", which int() refuses, and "٢", which it
        # reads as 2
        with pytest.raises(PDSyntaxError, match="arc label") as exc:
            parse_pd(text)
        assert exc.value.position == 11

    def test_trailing_input(self):
        with pytest.raises(PDSyntaxError, match="trailing"):
            parse_pd("PD[X[1,1,2,2]] junk")

    def test_multiplicity_violation(self):
        with pytest.raises(DiagramError, match="appears 3 times"):
            parse_pd("PD[X[1,1,2,2],X[2,3,3,4],X[4,5,5,6]]")

    def test_whitespace_tolerated(self):
        d = parse_pd("  PD[ X[ 1, 4 ,2,3]\n, X[3,2,4,1] ]  ")
        assert d.crossing_count == 2

    def test_empty_link(self):
        d = parse_pd("PD[]")
        assert d.crossing_count == 0 and d.free_loops == 0

    def test_pretzel_round_trip_through_pd(self):
        src = pretzel([2, 2, 2])
        d = parse_pd(pd_text(src))
        assert sorted(r.count for r in d.twist_regions) == [2, 2, 2]
        chains = {r.crossings for r in d.twist_regions}
        assert chains == {r.crossings for r in src.twist_regions}

    def test_explicit_regions(self):
        d = parse_pd("PD[X[1,4,2,3],X[3,2,4,1]]", regions=[[0, 1]])
        assert len(d.twist_regions) == 1
        d2 = parse_pd("PD[X[1,4,2,3],X[3,2,4,1]]", regions=[])
        assert d2.twist_regions == ()

    def test_json_round_trip(self):
        for d in (pretzel([2, 0, 2]), pretzel([3, 1]), UNKNOT):
            assert LinkDiagram.from_json(d.to_json()) == d
        blob = json.loads(pretzel([2, 0, 2]).to_json())
        assert blob["regions"][1]["count"] == 0


def union_find_walk_chain(crossings, reg):
    """``_walk_chain`` as it was before it followed the left strand: the
    top pair is oriented by a union-find over the whole chain."""
    xs = [crossings[c] for c in reg.crossings]
    pairs = [diagram_module._apairs(x) for x in xs]
    first = None
    prev = None
    for i in range(len(xs) - 1):
        shared = set(pairs[i]) & set(pairs[i + 1])
        shared.discard(prev)
        if not shared:
            raise DiagramError("not joined by a negative-twist bigon")
        prev = min(shared)
        if first is None:
            first = prev
    x0, xk = xs[0], xs[-1]
    if prev is None:
        return x0[0], x0[3], x0[1], x0[2]
    lo = (2, 3) if pairs[0][0] == first else (0, 1)
    hi = (2, 3) if pairs[-1][0] == prev else (0, 1)
    bl, br = x0[lo[0]], x0[lo[1]]
    tl, tr = xk[hi[0]], xk[hi[1]]
    uf = diagram_module._UnionFind()
    for x in xs:
        uf.union(x[0], x[3])
        uf.union(x[1], x[2])
    if uf.find(tl) != uf.find(bl):
        tl, tr = tr, tl
    return bl, tl, br, tr


PD_FIXTURES = (
    "PD[X[1,4,2,3],X[3,2,4,1]]",
    "PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]]",
    "PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,2],X[4,7,3,8]]",
    "PD[X[1,1,2,2]]",
    "PD[X[1,2,3,4],X[1,2,3,4]]",
)


def assert_walks_agree(crossings, regions):
    for reg in regions:
        if not reg.count:
            continue
        try:
            want = union_find_walk_chain(crossings, reg)
        except DiagramError:
            with pytest.raises(DiagramError):
                diagram_module._walk_chain(crossings, reg)
            continue
        assert diagram_module._walk_chain(crossings, reg) == want, reg


class TestWalkChainAgainstUnionFind:
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=4),
           st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_pretzels_and_their_parsed_drawings(self, counts, rng):
        d = pretzel(counts)
        assert_walks_agree(d.crossings, d.twist_regions)
        # the same drawing parsed back, shuffled, some crossings read from
        # their other under-slot, so chains start on either A-pair
        crossings = tuple(
            x[2:] + x[:2] if rng.random() < 0.5 else x for x in d.crossings
        )
        crossings = tuple(rng.sample(crossings, len(crossings)))
        parsed = parse_pd(pd_text(LinkDiagram(crossings)))
        assert_walks_agree(parsed.crossings, parsed.twist_regions)

    @pytest.mark.parametrize("text", PD_FIXTURES)
    def test_pd_fixtures(self, text):
        # the walk is local, so it runs on codes that draw no planar
        # diagram too, which LinkDiagram refuses
        crossings = diagram_module._parse_pd_text(text)
        assert_walks_agree(crossings, diagram_module._detect_regions(crossings))

    @given(st.integers(1, 5).flatmap(
        lambda c: st.permutations([a for a in range(1, 2 * c + 1)] * 2)))
    @example([2, 2, 1, 3, 5, 6, 4, 5, 3, 1, 4, 6])  # br == bl, planar
    @example([2, 4, 2, 5, 3, 1, 6, 6, 4, 5, 1, 3])  # br == bl
    @example([2, 8, 7, 6, 4, 1, 5, 5, 7, 3, 8, 2, 4, 6, 1, 3])  # tl == bl
    @example([5, 4, 2, 8, 8, 2, 7, 4, 3, 6, 1, 7, 3, 5, 6, 1])  # br == tr
    @settings(max_examples=150, deadline=None)
    def test_any_arc_labeling(self, labels):
        # every arc twice, planar or not; strands that share an end arc
        # (a kink at either end, a region closed on itself) are one strand
        crossings = tuple(tuple(labels[i:i + 4]) for i in range(0, len(labels), 4))
        regions = diagram_module._detect_regions(crossings)
        assert_walks_agree(crossings, regions)

    def test_union_find_follows_long_chains(self):
        # merging roots by min builds chains 5 -> 4 -> 3 -> 1; a root
        # search that stops after two links splits the class again
        uf = diagram_module._UnionFind()
        for a, b in ((4, 5), (3, 4), (1, 3), (2, 5)):
            uf.union(a, b)
        assert uf.classes(range(1, 6)) == {1: [1, 2, 3, 4, 5]}


class TestApplyState:
    def test_crossingless_unknot(self):
        assert apply_state(UNKNOT, State({})) == 1

    def test_curl_states(self):
        d = parse_pd("PD[X[1,1,2,2]]")
        assert apply_state(d, State.all_plus(d)) == 2
        assert apply_state(d, State.all_minus(d)) == 1

    def test_trefoil_states(self):
        d = pretzel([1, 1, 1])
        assert apply_state(d, State.all_minus(d)) == 3
        assert apply_state(d, State.all_plus(d)) == 2

    def test_pretzel_minus_state_counts_regions(self):
        # The all-negative state of a positive pretzel passes every region
        # straight through, leaving one circle per region.
        for counts in ([2, 3], [2, 2, 2], [8, 6, 3], [1, 2, 3, 4]):
            d = pretzel(counts)
            assert apply_state(d, State.all_minus(d)) == len(counts)

    def test_plain_mapping_accepted(self):
        d = pretzel([1, 1, 1])
        assert apply_state(d, {0: -1, 1: -1, 2: 1}) == 2

    def test_partial_state_rejected(self):
        d = pretzel([1, 1, 1])
        with pytest.raises(DiagramError, match="does not assign"):
            apply_state(d, {0: -1, 1: -1})

    def test_extra_assignment_rejected(self):
        with pytest.raises(DiagramError, match="missing crossing"):
            apply_state(parse_pd("PD[X[1,1,2,2]]"), {0: 1, 5: 1})

    def test_bad_value_rejected(self):
        with pytest.raises(DiagramError, match="use -1 or"):
            apply_state(parse_pd("PD[X[1,1,2,2]]"), {0: 0})

    def test_relabel_invariance(self):
        rng = random.Random(11)
        d = pretzel([2, 1, 3])
        arcs = sorted(d.arcs())
        shuffled = arcs[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(arcs, (a + 100 for a in shuffled)))
        d2 = relabel_arcs(d, mapping)
        for _ in range(20):
            s = {i: rng.choice((-1, 1)) for i in range(d.crossing_count)}
            assert apply_state(d, s) == apply_state(d2, s)

    def test_relabel_must_be_injective(self):
        with pytest.raises(DiagramError, match="injective"):
            relabel_arcs(pretzel([1, 1]), {1: 2})


class TestStateGraphs:
    def test_minus_graph_shape(self):
        g = minus_graph(pretzel([2, 2, 2]))
        assert g.vertex_count == 3
        assert len(g.edges) == 6
        assert not g.has_loop

    def test_reduced_merges_parallel_edges(self):
        g = reduced_minus_graph(pretzel([2, 2, 2]))
        assert g.reduced and len(g.edges) == 3
        # each surviving edge keeps the smallest crossing id of its class
        assert sorted(cid for _, _, cid in g.edges) == [0, 2, 4]

    def test_reduced_graph_independent_of_twisting(self):
        forms = {
            graph_canon(reduced_minus_graph(pretzel(c)))
            for c in ([2, 2, 2], [3, 4, 2], [5, 2, 3])
        }
        assert len(forms) == 1

    def test_two_region_pretzel_graph(self):
        g = minus_graph(pretzel([2, 3]))
        assert g.vertex_count == 2 and len(g.edges) == 5
        assert len(reduced_minus_graph(pretzel([2, 3])).edges) == 1

    def test_curl_is_one_sided(self):
        d = parse_pd("PD[X[1,1,2,2]]")
        assert not is_minus_adequate(d)
        assert not plus_graph(d).has_loop
        assert not is_adequate(d)

    def test_reduced_alternating_pretzel_is_adequate(self):
        assert is_adequate(pretzel([2, 3, 2]))
        assert is_adequate(pretzel([8, 6, 3]))

    def test_crossingless_unknot_is_adequate(self):
        assert is_adequate(UNKNOT)
        assert minus_graph(UNKNOT).vertex_count == 1

    def test_single_region_closure_is_plus_adequate_only(self):
        # P(k) closes a lone twist region on itself: its negative state is
        # one circle with every crossing a loop, while the positive state
        # splits into k+1 circles.
        d = pretzel([3])
        assert not is_minus_adequate(d)
        assert not plus_graph(d).has_loop
        assert plus_graph(d).vertex_count == 4

    def test_pipeline_counts_are_consistent(self):
        # diagram -> all-negative state -> minus graph -> reduced graph
        d = pretzel([2, 2, 2])
        circles = apply_state(d, State.all_minus(d))
        g = minus_graph(d)
        assert g.vertex_count == circles
        assert len(g.edges) == d.crossing_count
        assert len(reduced_minus_graph(d).edges) <= len(g.edges)

    def test_free_loops_become_isolated_vertices(self):
        g = minus_graph(pretzel([0, 0, 0]))
        assert g.vertex_count == 3 and g.free_circles == 3
        assert g.edges == ()

    def test_dot_output(self):
        dot = reduced_minus_graph(pretzel([2, 2, 2])).to_dot("g")
        assert dot.startswith("graph g {")
        assert dot.count(" -- ") == 3
        assert "loop" in minus_graph(pretzel([0])).to_dot()


# -- recorded region sides ---------------------------------------------------


def reference_chain_boundary(diagram: LinkDiagram, reg: TwistRegion):
    """Boundary arcs of a nonempty region: [bl, br], [tl, tr], strand-matched.

    An independent walk of the chain, the reference ``LinkDiagram.sides``
    is checked against.
    """

    def apairs(x):
        return (min(x[0], x[1]), max(x[0], x[1])), (min(x[2], x[3]), max(x[2], x[3]))

    xs = [diagram.crossings[c] for c in reg.crossings]
    if len(xs) == 1:
        x = xs[0]
        return [x[0], x[1]], [x[3], x[2]]
    chosen = None
    first_chosen = None
    for lo_x, hi_x in zip(xs, xs[1:]):
        shared = set(apairs(lo_x)) & set(apairs(hi_x))
        shared.discard(chosen)
        chosen = min(shared)
        if first_chosen is None:
            first_chosen = chosen
    lo = (2, 3) if apairs(xs[0])[0] == first_chosen else (0, 1)
    hi = (2, 3) if apairs(xs[-1])[0] == chosen else (0, 1)
    bottom = [xs[0][lo[0]], xs[0][lo[1]]]
    top_pair = [xs[-1][hi[0]], xs[-1][hi[1]]]
    parent: dict[int, int] = {}

    def find(a):
        while parent.setdefault(a, a) != a:
            a = parent[a]
        return a

    for x in xs:
        parent[find(x[0])] = find(x[3])
        parent[find(x[1])] = find(x[2])
    if find(top_pair[0]) == find(bottom[0]):
        top = top_pair
    else:
        top = [top_pair[1], top_pair[0]]
    return bottom, top


def reference_sides(diagram: LinkDiagram) -> dict:
    out = {}
    for reg in diagram.twist_regions:
        out[reg.rid] = None
        if reg.count:
            (bl, br), (tl, tr) = reference_chain_boundary(diagram, reg)
            out[reg.rid] = (bl, tl, br, tr)
    return out


def assert_sides(diagram: LinkDiagram) -> None:
    assert dict(diagram.sides) == reference_sides(diagram)
    back = LinkDiagram.from_json(diagram.to_json())
    assert dict(back.sides) == reference_sides(back)


def assert_closed_beside_zeros(diagram: LinkDiagram) -> None:
    """In a pretzel, a column's side closes on itself, one arc, exactly
    where the region beside it has no crossings."""
    regions = diagram.twist_regions
    for i, reg in enumerate(regions):
        if not reg.count:
            continue
        bl, tl, br, tr = diagram.sides[reg.rid]
        before, after = regions[i - 1], regions[(i + 1) % len(regions)]
        assert (bl == tl, br == tr) == (not before.count, not after.count), reg.rid


counts_st = st.lists(st.integers(0, 5), min_size=1, max_size=4)


class TestRecordedSides:
    @given(counts_st)
    # zero columns at both ends of a run, and columns of two between zero
    # columns, which the walk reads from their inner arcs
    @example([2, 0, 3])
    @example([0, 2])
    @example([2, 0, 0])
    @example([0, 2, 0, 3])
    @example([1, 0, 2, 0])
    @example([0, 3, 0, 2])
    @example([2, 0, 2, 0])
    @settings(max_examples=60, deadline=None)
    def test_pretzels(self, counts):
        assert_sides(pretzel(counts))
        assert_closed_beside_zeros(pretzel(counts))

    def test_zero_regions_have_no_sides(self):
        d = pretzel([2, 0, 3])
        assert d.sides[2] is None
        assert d.sides[1][2] == d.sides[1][3] and d.sides[3][0] == d.sides[3][1]
        assert pretzel([0]).sides[1] is None
        for diagram in (d, pretzel([0]), pretzel([0, 0, 0])):
            assert_sides(diagram)

    def test_json_of_earlier_versions_loads(self):
        # earlier versions wrote the arcs beside a zero column as "rails";
        # they repeated the neighbours' sides, and the key is ignored
        saved = {"name": "P(3,0,4,0,0,2)", "crossings": [
            [12, 1, 14, 13], [13, 14, 16, 15], [15, 16, 1, 11], [3, 5, 18, 17],
            [17, 18, 20, 19], [19, 20, 22, 21], [21, 22, 5, 3], [9, 12, 24, 23],
            [23, 24, 11, 9]], "free_loops": 1, "regions": [
            {"id": 1, "crossings": [0, 1, 2], "count": 3, "rails": None},
            {"id": 2, "crossings": [], "count": 0,
             "rails": [[0, 1], [2, 2], [3, 0], [6, 3]]},
            {"id": 3, "crossings": [3, 4, 5, 6], "count": 4, "rails": None},
            {"id": 4, "crossings": [], "count": 0,
             "rails": [[3, 1], [6, 2], [7, 0], [8, 3]]},
            {"id": 5, "crossings": [], "count": 0, "rails": None},
            {"id": 6, "crossings": [7, 8], "count": 2, "rails": None}]}
        d = LinkDiagram.from_json(json.dumps(saved))
        want = pretzel([3, 0, 4, 0, 0, 2])
        assert d == want and "rails" not in d.to_json()
        for n in (1, 2, 3):
            assert (colored_bracket_fused(d, n).value
                    == colored_bracket_fused(want, n).value)

    @given(counts_st, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_parsed_diagrams(self, counts, rng):
        # shuffled crossings, some read from their other under-slot, so
        # the detected chains start and end on either A-pair
        crossings = [
            x[2:] + x[:2] if rng.random() < 0.5 else x
            for x in pretzel(counts).crossings
        ]
        rng.shuffle(crossings)
        d = parse_pd(pd_text(LinkDiagram(tuple(crossings))))
        assert_sides(d)

    def test_closed_up_region(self):
        assert_sides(parse_pd("PD[X[1,4,2,3],X[3,2,4,1]]"))
        # three crossings, each sharing one A-pair with each of the others
        assert_sides(parse_pd("PD[X[2,3,6,5],X[5,6,8,7],X[7,8,3,2]]"))

    @given(counts_st, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_relabeled_arcs(self, counts, rng):
        d = pretzel(counts)
        arcs = sorted(d.arcs())
        image = rng.sample(range(1, 3 * len(arcs) + 2), len(arcs))
        relabeled = relabel_arcs(d, dict(zip(arcs, image)))
        assert_sides(relabeled)

    def test_each_region_walked_once_per_diagram(self, monkeypatch):
        walks: list[int] = []
        built: list[LinkDiagram] = []
        walk = diagram_module._walk_chain
        validate = LinkDiagram._validate

        def counted_walk(crossings, reg):
            walks.append(reg.rid)
            return walk(crossings, reg)

        def counted_validate(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(diagram_module, "_walk_chain", counted_walk)
        monkeypatch.setattr(LinkDiagram, "_validate", counted_validate)
        for counts in ([8, 6, 5], [0, 3, 3], [2, 0, 2], [0, 0, 1]):
            walks.clear()
            built.clear()
            member = pretzel(counts)
            assert built
            assert len(walks) == sum(
                1 for d in built for reg in d.twist_regions if reg.count
            )
            walks.clear()
            colored_bracket_fused(member, 2)
            assert walks == []

    @pytest.mark.parametrize(
        "diagram",
        [
            pretzel([2, 0, 3]),
            pretzel([0]),
            parse_pd("PD[X[1,4,2,3],X[3,2,4,1]]"),
            pretzel([0, 0, 3]),
        ],
    )
    def test_sides_ignored_by_eq_hash_repr_json(self, diagram):
        twin = LinkDiagram.from_json(diagram.to_json())
        object.__setattr__(twin, "sides", {})
        assert twin == diagram
        assert hash(twin) == hash(diagram)
        assert repr(twin) == repr(diagram)
        assert "sides" not in repr(diagram)
        assert twin.to_json() == diagram.to_json()
