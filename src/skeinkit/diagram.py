"""Link diagrams with labeled negative twist regions.

A diagram is a list of PD-style crossings ``X[a, b, c, d]``: the four arc
labels around the crossing, counterclockwise, starting at the incoming
under-strand.  The positive (A-) smoothing joins the arc pairs (a, b) and
(c, d); the negative smoothing joins (a, d) and (b, c).  With this
convention the one-crossing unknot ``X[1,1,2,2]`` has A-state 2 circles and
negative state 1 circle.

A negative twist region is a maximal stack of bigon-adjacent crossings on
two strands whose negative smoothing passes both strands straight through.
Combinatorially: consecutive crossings of the stack share an arc pair that
is an A-pair (slots (0,1) or (2,3)) in both crossings.  Validation walks
each region's chain once and records where its two strands enter and
leave (``LinkDiagram.sides``); the ring layout reads those arcs instead
of walking the chain again.  A pretzel column of zero crossings is drawn
as the negative smoothing, two strands and no crossing, so it has no
sides of its own: the sides of the columns beside it each close on
themselves, one arc apiece, and the ring layout reads the zero column
from them.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

__all__ = [
    "DiagramError",
    "PDSyntaxError",
    "TwistRegion",
    "State",
    "LinkDiagram",
    "StateGraph",
    "pretzel",
    "parse_pd",
    "apply_state",
    "minus_graph",
    "plus_graph",
    "reduced_minus_graph",
    "is_minus_adequate",
    "is_adequate",
    "is_alternating",
    "relabel_arcs",
]


class DiagramError(ValueError):
    """A malformed diagram, state, or region operation."""


class PDSyntaxError(DiagramError):
    """Unparseable PD notation.  Carries the offending text position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at position {position}")
        self.position = position


Crossing = tuple[int, int, int, int]
# Boundary arcs of a region, (bottom-left, top-left, bottom-right,
# top-right): the negative smoothing joins bl to tl and br to tr.
Sides = tuple[int, int, int, int]


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        root = self._parent.setdefault(x, x)
        while self._parent[root] != root:
            root = self._parent[root]
        while x != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        """Merge the classes of x and y.  False if already merged."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self._parent[max(rx, ry)] = min(rx, ry)
        return True

    def classes(self, items: Iterable[int]) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for x in items:
            out.setdefault(self.find(x), []).append(x)
        return out


def _apairs(x: Crossing) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two arc pairs joined by the A-smoothing, each sorted."""
    return (
        (min(x[0], x[1]), max(x[0], x[1])),
        (min(x[2], x[3]), max(x[2], x[3])),
    )


@dataclass(frozen=True)
class TwistRegion:
    """A labeled maximal negative twist region.

    ``crossings`` lists crossing ids along the stack; ``count`` is the
    number of crossings (0 means the region is the negative smoothing,
    a label without sides).
    """

    rid: int
    crossings: tuple[int, ...]
    count: int


@dataclass(frozen=True)
class State:
    """A classical smoothing assignment, -1 or +1 per crossing id."""

    assignment: Mapping[int, int]

    @classmethod
    def all_minus(cls, diagram: "LinkDiagram") -> "State":
        return cls({i: -1 for i in range(len(diagram.crossings))})

    @classmethod
    def all_plus(cls, diagram: "LinkDiagram") -> "State":
        return cls({i: +1 for i in range(len(diagram.crossings))})


@dataclass(frozen=True)
class LinkDiagram:
    """Crossings, labeled twist regions, and crossing-free loops.

    The crossings must draw a planar diagram: validation refuses them
    unless every connected part of their 4-valent graph has V - E + F = 2
    (``_is_planar``), so a bracket's exponents lie in one class mod 4.
    ``sides`` is derived when the diagram is validated: it maps each
    region id to the region's boundary arcs ``(bl, tl, br, tr)``, or to
    None for a zero region.  It takes no part in equality, hashing, repr
    or JSON.
    """

    crossings: tuple[Crossing, ...]
    twist_regions: tuple[TwistRegion, ...] = ()
    free_loops: int = 0
    name: str = ""
    sides: Mapping[int, Sides | None] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "crossings",
            tuple(tuple(operator.index(a) for a in x) for x in self.crossings)
        )
        loops = self.free_loops
        # operator.index takes True for 1, so a bool is refused first
        if isinstance(loops, bool) or not hasattr(loops, "__index__"):
            raise TypeError(f"free_loops must be an int, got {loops!r}")
        object.__setattr__(self, "free_loops", operator.index(loops))
        object.__setattr__(
            self,
            "twist_regions",
            tuple(
                replace(reg, crossings=tuple(reg.crossings)) for reg in self.twist_regions
            ),
        )
        self._validate()

    def _validate(self) -> None:
        if self.free_loops < 0:
            raise DiagramError("free_loops must be nonnegative")
        seen: dict[int, int] = {}
        for x in self.crossings:
            if len(x) != 4:
                raise DiagramError(f"crossing {x} does not have 4 arc labels")
            for a in x:
                if a < 1:
                    raise DiagramError(f"arc label {a} is not a positive integer")
                seen[a] = seen.get(a, 0) + 1
        for a, m in seen.items():
            if m != 2:
                raise DiagramError(
                    f"arc {a} appears {m} times; every arc label must appear exactly twice"
                )
        if not _is_planar(self.crossings):
            raise DiagramError(
                "the PD code does not draw a planar diagram: a connected part "
                "has V - E + F below 2"
            )
        used: set[int] = set()
        rids: set[int] = set()
        sides: dict[int, Sides | None] = {}
        for reg in self.twist_regions:
            if reg.rid in rids:
                raise DiagramError(f"duplicate twist region id {reg.rid}")
            rids.add(reg.rid)
            if reg.count != len(reg.crossings):
                raise DiagramError(
                    f"region {reg.rid} declares {reg.count} crossings but lists "
                    f"{len(reg.crossings)}"
                )
            for cid in reg.crossings:
                if not 0 <= cid < len(self.crossings):
                    raise DiagramError(f"region {reg.rid} references crossing {cid}")
                if cid in used:
                    raise DiagramError(f"crossing {cid} lies in two twist regions")
                used.add(cid)
            sides[reg.rid] = _walk_chain(self.crossings, reg) if reg.count else None
        object.__setattr__(self, "sides", sides)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def arcs(self) -> frozenset[int]:
        return frozenset(a for x in self.crossings for a in x)

    def region(self, rid: int) -> TwistRegion:
        for reg in self.twist_regions:
            if reg.rid == rid:
                return reg
        raise DiagramError(f"no twist region {rid}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "crossings": [list(x) for x in self.crossings],
                "free_loops": self.free_loops,
                "regions": [
                    {
                        "id": reg.rid,
                        "crossings": list(reg.crossings),
                        "count": reg.count,
                    }
                    for reg in self.twist_regions
                ],
            }
        )

    @classmethod
    def from_json(cls, data: str | dict) -> "LinkDiagram":
        obj = json.loads(data) if isinstance(data, str) else data
        regions = tuple(
            TwistRegion(rid=r["id"], crossings=tuple(r["crossings"]), count=r["count"])
            for r in obj.get("regions", ())
        )
        return cls(
            crossings=tuple(tuple(x) for x in obj["crossings"]),
            twist_regions=regions,
            free_loops=obj.get("free_loops", 0),
            name=obj.get("name", ""),
        )


@dataclass(frozen=True)
class StateGraph:
    """The graph of an all-minus or all-plus state.

    Vertices are the circles of the state: ``circles`` holds the arc labels
    of each circle (sorted, ordered by smallest arc), and ``free_circles``
    counts crossing-free loop components, appended as isolated vertices.
    Each edge is (u, v, crossing id).
    """

    circles: tuple[tuple[int, ...], ...]
    free_circles: int
    edges: tuple[tuple[int, int, int], ...]
    sign: int
    reduced: bool = False

    @property
    def vertex_count(self) -> int:
        return len(self.circles) + self.free_circles

    @property
    def has_loop(self) -> bool:
        return any(u == v for u, v, _ in self.edges)

    def reduce(self) -> "StateGraph":
        """Merge parallel edges, keeping the smallest crossing id of each class."""
        kept: dict[tuple[int, int], int] = {}
        for u, v, cid in self.edges:
            if (u, v) not in kept or cid < kept[(u, v)]:
                kept[(u, v)] = cid
        edges = tuple(sorted((u, v, cid) for (u, v), cid in kept.items()))
        return replace(self, edges=edges, reduced=True)

    def to_dot(self, graph_name: str = "state_graph") -> str:
        lines = [f"graph {graph_name} {{"]
        for i, circle in enumerate(self.circles):
            label = ",".join(str(a) for a in circle)
            lines.append(f'  v{i} [label="({label})"];')
        for i in range(self.free_circles):
            lines.append(f'  v{len(self.circles) + i} [label="loop"];')
        for u, v, cid in self.edges:
            lines.append(f'  v{u} -- v{v} [label="c{cid}"];')
        lines.append("}")
        return "\n".join(lines)


# -- construction -------------------------------------------------------------


def pretzel(counts: Sequence[int], name: str | None = None) -> LinkDiagram:
    """The standard pretzel diagram with r vertical negative twist regions.

    Region i carries counts[i] crossings; a zero count means the region is
    the negative smoothing, two strands without a crossing.  All regions
    are labeled 1..r.  The diagram is alternating whenever every count is
    at least 1.  A zero region has no sides; the column on each side of a
    run of them has its side there closed into one arc.
    """
    if not counts:
        raise DiagramError("a pretzel needs at least one twist region")
    if any(k < 0 for k in counts):
        raise DiagramError("twist region sizes must be nonnegative")
    # Connector arcs: 2i+1 joins the tops of regions i and i+1
    # (cyclically), 2i+2 the bottoms.  Region i's left column runs from
    # the bottom connector of region i-1 to its top connector, the right
    # column from region i's own.  A zero region joins the connectors on
    # each side of it into their top arc, so a connector between two zero
    # regions meets no crossing and is a free loop.
    r = len(counts)
    zero = [k == 0 for k in counts]
    bottom = [2 * i + 1 if zero[i] or zero[(i + 1) % r] else 2 * i + 2
              for i in range(r)]
    loops = sum(zero[i] and zero[(i + 1) % r] for i in range(r))
    nxt = 2 * r + 1
    crossings: list[Crossing] = []
    regions: list[TwistRegion] = []
    for i, k in enumerate(counts):
        j = (i - 1) % r
        first = len(crossings)
        if k:
            crossings += _chain(bottom[j], 2 * j + 1, bottom[i], 2 * i + 1, k, nxt)
            nxt += 2 * (k - 1)
        regions.append(TwistRegion(i + 1, tuple(range(first, first + k)), k))
    label = name if name is not None else "P(" + ",".join(str(k) for k in counts) + ")"
    return LinkDiagram(tuple(crossings), tuple(regions), loops, label)


def _chain(bl: int, tl: int, br: int, tr: int, k: int, nxt: int) -> list[Crossing]:
    """The k >= 1 crossings of a negative twist region between its sides.

    Crossing j is [l(j), r(j), r(j+1), l(j+1)], with the left strand
    running bl = l(0) .. l(k) = tl and the right br = r(0) .. r(k) = tr:
    the under-strand climbs the SW-NE diagonal, which is what makes the
    region a negative twist.  Interior arcs are numbered from ``nxt``,
    l(j) = nxt + 2(j-1) and r(j) = l(j) + 1.
    """
    inner = range(nxt, nxt + 2 * (k - 1), 2)
    left = [bl, *inner, tl]
    right = [br, *(a + 1 for a in inner), tr]
    return [(left[j], right[j], right[j + 1], left[j + 1]) for j in range(k)]


def parse_pd(
    text: str,
    regions: Sequence[Sequence[int]] | None = None,
    name: str = "",
) -> LinkDiagram:
    """Parse KnotTheory-style PD notation ``PD[X[a,b,c,d], ...]``.

    Twist regions are auto-detected as maximal chains of bigon-adjacent
    crossings unless explicit chains of crossing ids are supplied.  A code
    that draws no planar diagram raises ``DiagramError``.
    """
    crossings = _parse_pd_text(text)
    if regions is None:
        regs = _detect_regions(crossings)
    else:
        regs = tuple(
            TwistRegion(i + 1, tuple(chain), len(chain)) for i, chain in enumerate(regions)
        )
    return LinkDiagram(crossings, regs, name=name)


def _parse_pd_text(text: str) -> tuple[Crossing, ...]:
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(token: str) -> None:
        nonlocal pos
        skip_ws()
        if not text.startswith(token, pos):
            raise PDSyntaxError(f"expected '{token}'", pos)
        pos += len(token)

    def read_int() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(text) and "0" <= text[pos] <= "9":
            pos += 1
        if pos == start:
            raise PDSyntaxError("expected an arc label", start)
        return int(text[start:pos])

    expect("PD")
    expect("[")
    crossings: list[Crossing] = []
    skip_ws()
    if pos < len(text) and text[pos] == "]":
        pos += 1
    else:
        while True:
            x_at = pos
            expect("X")
            expect("[")
            labels = [read_int()]
            while True:
                skip_ws()
                if pos < len(text) and text[pos] == ",":
                    pos += 1
                    labels.append(read_int())
                elif pos < len(text) and text[pos] == "]":
                    pos += 1
                    break
                else:
                    raise PDSyntaxError("expected ',' or ']'", pos)
            if len(labels) != 4:
                raise PDSyntaxError(
                    f"X takes 4 arc labels, got {len(labels)}", x_at
                )
            crossings.append(tuple(labels))  # type: ignore[arg-type]
            skip_ws()
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            expect("]")
            break
    skip_ws()
    if pos != len(text):
        raise PDSyntaxError("trailing input", pos)
    return tuple(crossings)


def _detect_regions(crossings: Sequence[Crossing]) -> tuple[TwistRegion, ...]:
    # Two crossings are stacked in a negative twist exactly when they share
    # an arc pair that is an A-pair of both.  Each crossing has two A-pairs,
    # so the adjacency graph has maximum degree 2: its components are chains
    # (or closed-up cycles, broken at their smallest crossing id).
    partner: dict[tuple[int, int], list[int]] = {}
    for cid, x in enumerate(crossings):
        for pair in _apairs(x):
            partner.setdefault(pair, []).append(cid)
    adj: dict[int, set[int]] = {cid: set() for cid in range(len(crossings))}
    uf = _UnionFind()
    for cids in partner.values():
        if len(cids) == 2 and cids[0] != cids[1]:
            adj[cids[0]].add(cids[1])
            adj[cids[1]].add(cids[0])
            uf.union(*cids)
    chains: list[list[int]] = []
    # each class is keyed by, and lists from, its smallest crossing id
    for component in uf.classes(range(len(crossings))).values():
        ends = [c for c in component if len(adj[c]) < 2]
        chain = [ends[0] if ends else component[0]]  # cycle: break at its smallest
        seen = set(chain)
        while True:
            options = sorted(adj[chain[-1]] - seen)
            if not options:
                break
            chain.append(options[0])
            seen.add(options[0])
        chains.append(chain)
    return tuple(
        TwistRegion(i + 1, tuple(chain), len(chain)) for i, chain in enumerate(chains)
    )


def _walk_chain(crossings: Sequence[Crossing], reg: TwistRegion) -> Sides:
    """Check a nonempty region's chain and return its boundary arcs.

    Consecutive crossings of the stack must share an A-pair; a shared
    B-pair would make the twist positive, which regions never are.  The
    walk takes the smallest shared pair not used by the previous bigon,
    so a closed-up region (both A-pairs shared between two crossings)
    reads its free ends consistently.  The bottom pair is the first
    crossing's free A-pair in slot order; the top pair is the last
    crossing's, ordered so that the negative smoothing of the whole
    region joins bl to tl and br to tr: the walk follows the left strand
    from bl through each crossing's negative smoothing (slots 0-3 and
    1-2) and names the top arc it reaches tl.
    """
    xs = [crossings[c] for c in reg.crossings]
    pairs = [_apairs(x) for x in xs]
    first: tuple[int, int] | None = None
    prev: tuple[int, int] | None = None
    for i in range(len(xs) - 1):
        shared = set(pairs[i]) & set(pairs[i + 1])
        shared.discard(prev)  # type: ignore[arg-type]
        if not shared:
            raise DiagramError(
                f"region {reg.rid}: crossings {reg.crossings[i]} and "
                f"{reg.crossings[i + 1]} are not joined by a negative-twist bigon"
            )
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
    a = x0[3 - lo[0]]
    for x in xs[1:]:
        a = x[3 - x.index(a)]
    # strands that share an end arc are one strand, joined to both tops
    if a != tl and tl != bl and br not in (bl, tr):
        tl, tr = tr, tl
    return bl, tl, br, tr


def _is_planar(crossings: Sequence[Crossing]) -> bool:
    """Whether every connected part of the diagram's 4-valent graph has
    V - E + F = 2, so that it draws on the sphere.

    Half-edge 4c + s is slot s of crossing c.  The faces are the orbits of
    "follow the arc to its other end, then step to the next slot
    counterclockwise".  A part of V crossings has E = 2V edges and at most
    V + 2 faces, V + 2 exactly when it is planar; so the whole graph is
    planar when it has V + 2 faces per part.
    """
    other = [0] * (4 * len(crossings))
    first: dict[int, int] = {}
    uf = _UnionFind()
    parts = len(crossings)
    for h, a in enumerate(a for x in crossings for a in x):
        g = first.pop(a, None)
        if g is None:
            first[a] = h
        else:
            other[h], other[g] = g, h
            parts -= uf.union(h >> 2, g >> 2)
    seen = bytearray(len(other))
    faces = 0
    for h in range(len(other)):
        if not seen[h]:
            faces += 1
            while not seen[h]:
                seen[h] = 1
                g = other[h]
                h = g - 3 if g & 3 == 3 else g + 1
    return faces == len(crossings) + 2 * parts


# -- states and state graphs ---------------------------------------------------


def apply_state(diagram: LinkDiagram, state: State | Mapping[int, int]) -> int:
    """Circle count |s(D)| of the smoothed diagram.

    Positive values take the A-smoothing (joining slots (0,1) and (2,3)),
    negative the other pair.  Free loops count as circles.
    """
    assignment = state.assignment if isinstance(state, State) else state
    c = diagram.crossing_count
    for cid in range(c):
        try:
            value = assignment[cid]
        except KeyError:
            raise DiagramError(f"state does not assign crossing {cid}") from None
        if value not in (+1, -1):
            raise DiagramError(f"state value {value} at crossing {cid}; use -1 or +1")
    for cid in assignment:
        if not 0 <= cid < c:
            raise DiagramError(f"state assigns missing crossing {cid}")
    index = {a: i for i, a in enumerate(diagram.arcs())}
    parent = list(range(len(index)))
    circles = len(index) + diagram.free_loops
    for cid, slots in enumerate(diagram.crossings):
        s0, s1, s2, s3 = (index[a] for a in slots)
        plus = assignment[cid] == +1
        for x, y in ((s0, s1), (s2, s3)) if plus else ((s0, s3), (s1, s2)):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[x] = y
                circles -= 1
    return circles


def _state_graph(diagram: LinkDiagram, sign: int) -> StateGraph:
    uf = _UnionFind()
    for x in diagram.crossings:
        if sign == +1:
            uf.union(x[0], x[1])
            uf.union(x[2], x[3])
        else:
            uf.union(x[0], x[3])
            uf.union(x[1], x[2])
    classes = uf.classes(diagram.arcs())
    circles = tuple(sorted(tuple(sorted(arcs)) for arcs in classes.values()))
    index = {circle[0]: i for i, circle in enumerate(circles)}
    vertex_of = {a: index[min(classes[uf.find(a)])] for a in diagram.arcs()}
    edges = []
    for cid, x in enumerate(diagram.crossings):
        # One strand of the smoothed crossing passes through slot 0; the
        # other through slot 2 (A-smoothing) or slot 1 (negative).
        u = vertex_of[x[0]]
        v = vertex_of[x[2] if sign == +1 else x[1]]
        edges.append((min(u, v), max(u, v), cid))
    return StateGraph(
        circles=circles,
        free_circles=diagram.free_loops,
        edges=tuple(edges),
        sign=sign,
    )


def minus_graph(diagram: LinkDiagram) -> StateGraph:
    """Graph on the circles of the all-negative state, one edge per crossing."""
    return _state_graph(diagram, -1)


def plus_graph(diagram: LinkDiagram) -> StateGraph:
    return _state_graph(diagram, +1)


def reduced_minus_graph(diagram: LinkDiagram) -> StateGraph:
    return minus_graph(diagram).reduce()


def is_minus_adequate(diagram: LinkDiagram) -> bool:
    return not minus_graph(diagram).has_loop


def is_adequate(diagram: LinkDiagram) -> bool:
    return not (minus_graph(diagram).has_loop or plus_graph(diagram).has_loop)


def is_alternating(diagram: LinkDiagram) -> bool:
    """Whether every arc runs from an under-slot to an over-slot.

    Slots 0 and 2 of a crossing sit on the understrand, slots 1 and 3
    on the overstrand, so the diagram alternates exactly when each
    arc's two endpoints have opposite slot parity.  A diagram with no
    crossings alternates vacuously.
    """
    slots_of: dict[int, list[int]] = {}
    for x in diagram.crossings:
        for slot, a in enumerate(x):
            slots_of.setdefault(a, []).append(slot)
    return all(s0 % 2 != s1 % 2 for s0, s1 in slots_of.values())


# -- arc relabeling ------------------------------------------------------------


def relabel_arcs(diagram: LinkDiagram, mapping: Mapping[int, int]) -> LinkDiagram:
    """Apply an injective arc relabeling; labels not mapped stay put."""
    arcs = diagram.arcs()
    image = {mapping.get(a, a) for a in arcs}
    if len(image) != len(arcs):
        raise DiagramError("arc relabeling is not injective")
    crossings = tuple(
        tuple(mapping.get(a, a) for a in x) for x in diagram.crossings
    )
    return replace(diagram, crossings=crossings)
