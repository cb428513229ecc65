"""Fully clasped theta and tetrahedron networks, as a reference for the tests.

Every vertex here is ``vertex_morphism``, which carries a projector on
each of its three legs, so every edge meets two or three projectors.
``planar.theta_network`` and ``helpers.tet_network`` put one projector
on each edge instead, with bare turns at the vertices; projectors are
idempotent, so the values agree, and the tests compare the two.
"""

from skeinkit.planar import boxed, closure, compose, jones_wenzl, vertex_morphism


def clasped_theta(a, b, c):
    """closure(JW_c, then vertex down, then vertex up)."""
    down = compose(jones_wenzl(c), vertex_morphism(a, b, c, "down"))
    return closure(compose(down, vertex_morphism(a, b, c, "up")))


def clasped_tet(A, B, E, C, D, F):
    """The tetrahedron of ``helpers.tet_network`` from clasped vertices."""
    m = compose(jones_wenzl(E), vertex_morphism(A, B, E, "down"))
    m = compose(m, boxed(vertex_morphism(D, F, A, "down"), 0, B))
    m = compose(m, boxed(vertex_morphism(F, B, C, "up"), D, 0))
    return closure(compose(m, vertex_morphism(D, C, E, "up")))
