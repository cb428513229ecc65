"""Networks, a relabeling and a window comparison that only the tests use.

``tet_network`` and ``drum`` are closed Temperley-Lieb networks built
the way ``planar.theta_network`` and ``planar.close_ring`` build theirs;
the tests hold ``algebra.tet`` and the channel weights to them.
``relabel_arcs`` renames a diagram's arcs, and ``stable_prefix`` measures
how far two windows agree.
"""

from dataclasses import replace

from skeinkit.algebra import AdmissibilityError, admissible
from skeinkit.diagram import DiagramError
from skeinkit.planar import (
    _clasp,
    _turn,
    boxed,
    channel_element,
    close_ring,
    compose,
    jones_wenzl,
    seam_closure,
)
from skeinkit.stability import WindowError, _common_prefix, normalize


def tet_network(A, B, E, C, D, F):
    """Tetrahedron network with vertices (A,B,E), (B,C,F), (C,D,E), (D,A,F).

    Opposite edge pairs are (A,C), (B,D), (E,F).  Built as: open the E
    edge, split into cables A (left) and B (right), pass an F-rung that
    turns cable A into D and cable B into C, then merge back into E.
    The vertices are bare turns and each edge carries one projector,
    placed just before the vertex where the edge ends.  The last turn
    closes the network at its seam (``seam_closure``).
    """
    m = compose(jones_wenzl(E), _turn(A, B, E, "down"))
    m = _clasp(m, A, 0, B)
    m = compose(m, boxed(_turn(D, F, A, "down"), 0, B))
    m = _clasp(_clasp(m, F, D, B), B, D + F, 0)
    m = compose(m, boxed(_turn(F, B, C, "up"), D, 0))
    m = _clasp(_clasp(m, D, 0, C), C, D, 0)
    return seam_closure(m, _turn(D, C, E, "up"))


def drum(n, rungs):
    """Closed pretzel-shaped network: an n-colored cycle pair with rungs.

    Two concentric n-cables joined by r vertical rungs of even colors
    2p_i, one per column, closed cyclically by ``close_ring``; 2r
    trivalent vertices in all.  A single positive rung pinches the
    cycle pair into a dumbbell, which a clasp kills, so the value is
    0; all rungs colored 0 leave two disjoint clasped cycles, value
    delta(n)^2.  Odd or inadmissible rung colors raise
    ``AdmissibilityError``; the rung list must be nonempty.
    """
    if not rungs:
        raise ValueError("drum needs at least one rung")
    ps = []
    for c in rungs:
        if c % 2:
            raise AdmissibilityError(f"rung color {c} is odd")
        if not admissible(n, n, c):
            raise AdmissibilityError(f"(n, n, {c}) inadmissible for n={n}")
        ps.append(c // 2)
    return close_ring([channel_element(n, p) for p in ps])


def relabel_arcs(diagram, mapping):
    """Apply an injective arc relabeling; labels not mapped stay put."""
    arcs = diagram.arcs()
    image = {mapping.get(a, a) for a in arcs}
    if len(image) != len(arcs):
        raise DiagramError("arc relabeling is not injective")
    crossings = tuple(
        tuple(mapping.get(a, a) for a in x) for x in diagram.crossings
    )
    return replace(diagram, crossings=crossings)


def stable_prefix(p1, p2):
    """Largest n with the windows n-equivalent, capped by the shorter window."""
    if p1.units != p2.units:
        raise WindowError(f"grading units differ: {p1.units!r} vs {p2.units!r}")
    if not p1.coeffs or not p2.coeffs:
        return 0
    return _common_prefix(normalize(p1).coeffs, normalize(p2).coeffs)
