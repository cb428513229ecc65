"""Coefficient windows: the lowest coefficients of a colored bracket or of a
reduced polynomial.

A window is either read off a full polynomial (``window_from_bracket``,
``window_from_reduced``) or computed directly as a truncated power series
(``bracket_window``, ``reduced_window``), which never builds the rest of
the polynomial.

The series path.  ``invariants._ring_digits`` takes the ring sum of a
``Ring``, or of a diagram's ring layout, as a truncated power series in
x = A^4, modulo x^M above its nominal lowest exponent, with no common
denominator and no division; dividing by delta(n) is one multiplication by
(-1)^n A^(2n) F_n / F_(n+1).  The full polynomials of
``invariants.colored_bracket_fused`` and ``invariants.reduced_jones`` are
the same sum taken to the top of its span; a window takes only the M
digits it needs, at the precision its family shares.

The result is exact to M digits above its nominal lowest exponent.  When
the lowest z of those digits vanish and z + count > M, the sum is taken
again at M = z + count.

The column memo.  Each column of a ring contributes one factor per exit
channel q, and a ``ColumnMemo`` keeps those factors: for its one color,
the channels' twist monomials and, per column of k crossings, its nominal
lowest exponent keyed by (q, k), its channels below the exit's reach m
keyed by (q, k, m), their L1 bound keyed by (q, k, m, digits), and their
packed sum keyed by (q, k, m, digits, width), besides the channel weights
themselves, the longest series built of each.  It lives for one family
evaluation: the family callers in ``stability`` create one and pass it as
``memo`` next to the family's precision, so a member rebuilds only the
columns whose count changed; a window taken alone, or a full polynomial,
gets a fresh one.  No memo outlives its family, so nothing it holds goes
stale and no weight is held after it.

What is walked.  A column of k >= 1 crossings starts lowest at channel
n, and each channel below starts strictly higher, so the memo reads the
column's lowest exponent off channel n and walks its channels down from
there, stopping at the first that starts at the exit's reach m or beyond
(``invariants._nominal`` derives the bound this rests on).  Only a column
of 0 crossings scans every channel.

What is counted.  ``max_networks`` caps the column terms the series
builds: for each exit that starts below the precision, the channels each
column reaches there.  They are counted before any weight is built, at
each precision the sum is taken at, and the count stops at the first
exit that passes the cap.  The window of the published ``2,5,k`` row at
color 200 counts 36 (12 exits of 3 columns, one channel each); a full
polynomial reaches about r (n+1)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import LaurentPoly, QPoly
from .diagram import LinkDiagram
from .invariants import (
    ColumnMemo,
    Ring,
    _as_ring,
    _reduced_state_sum,
    _ring_digits,
    _state_sum_bracket,
)

__all__ = [
    "CoeffList",
    "ColumnMemo",
    "UNIT_NAMES",
    "WindowError",
    "bracket_window",
    "reduced_window",
    "window_from_bracket",
    "window_from_reduced",
]

# Digits taken beyond the largest window of a family: room for a bottom
# that cancels before ``_lowest_digits`` has to retry.
GUARD = 2

UNIT_NAMES = {"A": "A-units", "q": "q-units", "q/2": "half q-units"}


class WindowError(ValueError):
    """A coefficient window is empty, too short, or incomparable."""


def _as_int(c) -> int:
    i = int(c)
    if i != c:
        raise WindowError(f"non-integer coefficient {c!r} in window")
    return i


@dataclass(frozen=True)
class CoeffList:
    """A finite run of coefficients anchored at a recorded minimum degree.

    ``anchor`` is metadata only: comparisons strip it, matching the paper's
    convention that windows match up to an overall degree shift.
    """

    coeffs: tuple[int, ...]
    units: str = "q"
    anchor: Fraction = Fraction(0)
    normalized: bool = False

    def __post_init__(self) -> None:
        coeffs = self.coeffs
        # a tuple of plain ints, what every window is built from, is kept
        if type(coeffs) is not tuple or any(type(c) is not int
                                            for c in coeffs):
            object.__setattr__(self, "coeffs", tuple(_as_int(c) for c in coeffs))
        if type(self.anchor) is not Fraction:
            object.__setattr__(self, "anchor", Fraction(self.anchor))
        if self.units not in UNIT_NAMES:
            raise WindowError(f"unknown grading units {self.units!r}")

    def window(self) -> int:
        return len(self.coeffs)


def window_from_bracket(poly: LaurentPoly, count: int) -> CoeffList:
    """The lowest ``count`` A-coefficients, zeros included, anchor recorded."""
    if count < 0:
        raise ValueError("window length must be nonnegative")
    if poly.is_zero():
        raise WindowError("zero polynomial has no coefficient window")
    m = poly.min_degree()
    return CoeffList(
        tuple(poly.coeff(m + i) for i in range(count)), "A", Fraction(m)
    )


def window_from_reduced(qp: QPoly, count: int) -> CoeffList:
    """The lowest ``count`` coefficients along the reduced support lattice."""
    if count < 0:
        raise ValueError("window length must be nonnegative")
    if qp.is_zero():
        raise WindowError("zero polynomial has no coefficient window")
    den = 2 if qp.half_step else 1
    return CoeffList(
        tuple(qp.coeffs_from_bottom(count)),
        "q/2" if qp.half_step else "q",
        Fraction(qp.min_degree(), den),
    )


def _lowest_digits(n: int, style: str, twists, loops: int, memo: ColumnMemo,
                   max_networks: int, need: int,
                   digits: int) -> tuple[int, list[int]]:
    """The lowest A-exponent of the fused bracket times delta(n)^loops and
    its ``need`` >= 1 coefficients from there, in steps of A^4.

    A sum whose lowest z digits vanish is taken again with z + need
    digits.  The bracket of a link diagram is never 0 (at A = -1 it is
    +-(n+1)^c for c components), so some digit is nonzero at a large
    enough precision.
    """
    while True:
        low, out = _ring_digits(n, style, twists, loops, memo, max_networks,
                                digits)
        if out:
            z = min(out)
            if z + need <= digits:
                return low + 4 * z, [out.get(z + i, 0) for i in range(need)]
            digits = z + need
        else:
            digits *= 2


def bracket_window(shape: Ring | LinkDiagram, n: int, count: int, *,
                   family_count: int = 0, memo: ColumnMemo | None = None,
                   max_networks: int = 100_000) -> CoeffList:
    """``window_from_bracket(unreduced_colored_jones(diagram, n).value,
    count)``, computed as a truncated series.

    ``shape`` is a ``Ring`` or a diagram, converted to its ring layout
    once.  ``family_count`` is the largest window, in A-units, of the
    family the shape belongs to: the series is taken at the precision
    that window needs, so a family shares one and its per-color weights
    are built once.  ``memo`` is the family's ``ColumnMemo``; without one
    the window gets its own.  A diagram with no ring layout takes the
    window of its state sum.  The fusion budget counts the column terms
    the window's series builds, at each precision it is taken at.
    """
    if n < 1:
        raise ValueError(f"cable color must be >= 1, got {n}")
    if count < 0:
        raise ValueError("window length must be nonnegative")
    ring = _as_ring(shape)
    if ring is None:
        value = _state_sum_bracket(shape, n, max_networks=max_networks)
        return window_from_bracket(value, count)
    need = max(1, -(-count // 4))
    low, xs = _lowest_digits(n, ring.style, ring.counts, ring.loops,
                             memo or ColumnMemo(), max_networks, need,
                             max(need, -(-family_count // 4)) + GUARD)
    coeffs = (0 if i % 4 else xs[i // 4] for i in range(count))
    return CoeffList(tuple(coeffs), "A", Fraction(low))


def reduced_window(shape: Ring | LinkDiagram, N: int, count: int, *,
                   family_count: int = 0, memo: ColumnMemo | None = None,
                   max_networks: int = 100_000) -> CoeffList:
    """``window_from_reduced(reduced_jones(diagram, N), count)``, computed
    as a truncated series; ``shape`` and ``memo`` as in
    ``bracket_window``, and ``family_count`` too, in the window's own
    q-units.
    """
    if N < 2:
        raise ValueError(f"reduced polynomials start at index 2, got {N}")
    if count < 0:
        raise ValueError("window length must be nonnegative")
    n = N - 1
    ring = _as_ring(shape)
    if ring is None:
        value = _reduced_state_sum(shape, n, max_networks=max_networks)
        return window_from_reduced(value, count)
    need = max(1, count)
    low, xs = _lowest_digits(n, ring.style, ring.counts, ring.loops - 1,
                             memo or ColumnMemo(), max_networks, need,
                             max(need, family_count) + GUARD)
    # one residue class mod 4: substitute_quarter reads A^low as q^(low//4)
    return CoeffList(tuple(xs[:count]), "q", Fraction(low // 4))
