"""A ring closure built the long way, as a reference for the tests.

``plat_close`` sets r two-cable columns (2n -> 2n morphisms) side by
side and closes them at width 2rn with plat cups and caps: the right
cable of each column bends into the left cable of the next, and the
wrap-around bundle from the last column nests over everything.  The
trace form closes one column around its side with 2n nested cups and
caps.  ``planar.close_ring`` closes the same networks by quarter turns
and one Markov trace at width 2n; the tests compare the two.
"""

import functools

from skeinkit.algebra import ONE
from skeinkit.planar import (
    TLMorphism,
    boxed,
    capnest,
    closure,
    compose,
    cupnest,
    tensor,
)


def _plat_pairs(r, n):
    # column i owns positions 2n*i .. 2n*i+2n-1 (left cable then right)
    w = 2 * n * r
    pairs = [(s, w - 1 - s) for s in range(n)]
    for i in range(r - 1):
        base = 2 * n * i + n
        nxt = 2 * n * (i + 1)
        pairs.extend((base + s, nxt + n - 1 - s) for s in range(n))
    return pairs


def plat_cups(r, n):
    """The cups under r two-cable columns: a 0 -> 2rn morphism."""
    w = 2 * n * r
    partner = [0] * w
    for a, b in _plat_pairs(r, n):
        # node index for top position p is w-1-p
        na, nb = w - 1 - a, w - 1 - b
        partner[na], partner[nb] = nb, na
    return TLMorphism(0, w, {tuple(partner): ONE}, {})


def plat_caps(r, n):
    """The caps over them, mirroring ``plat_cups``: a 2rn -> 0 morphism."""
    w = 2 * n * r
    partner = [0] * w
    for a, b in _plat_pairs(r, n):
        partner[a], partner[b] = b, a
    return TLMorphism(w, 0, {tuple(partner): ONE}, {})


def plat_close(columns, n, style="ring"):
    """Value of the columns closed as a plat ring, or traced alone."""
    if style == "trace":
        (column,) = columns
        net = compose(compose(cupnest(2 * n), boxed(column, 2 * n, 0)),
                      capnest(2 * n))
    else:
        r = len(columns)
        net = compose(compose(plat_cups(r, n), functools.reduce(tensor, columns)),
                      plat_caps(r, n))
    return closure(net)
