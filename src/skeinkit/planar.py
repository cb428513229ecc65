"""Planar matchings, projector calculus, and network evaluation.

Encoding of a matching for a morphism with ``bot`` bottom points and
``top`` top points: nodes are numbered 0..bot-1 along the bottom from
left to right, then bot..bot+top-1 along the top from RIGHT to LEFT,
so the whole boundary reads counterclockwise as one cycle.  ``pair[i]``
is the partner of node i.  A matching is planar exactly when the arcs
are non-crossing in this cyclic order (balanced-bracket condition).

Morphisms compose bottom-up: ``compose(f, g)`` stacks g on top of f.
Closed loops created while gluing contribute factors of the loop value
delta = -A^2 - A^(-2).

A ``TLMorphism`` keeps one shared denominator for all its matchings,
so composition works on the numerators alone: it packs each one into a
Python int once (Kronecker substitution, as ``algebra`` multiplies
large polynomials), reads each matching once from the seam, and its
inner loop walks only the seam and adds ints.  The denominator is a
product of cyclotomic factors Phi_d(A^4) (loop values and their
quotients are), kept as its exponent vector: a composition adds
vectors, a sum takes their componentwise maximum, and normalization
divides each factor out of every numerator that allows it, with no
polynomial gcd.  A composition divides its packed sums by the packed
factors as ints and checks the quotients' digits once (``_cancel``
gives the argument); the rest of the layer trial-divides polynomials
(``algebra.divide_out``).  The ``terms`` property presents the
conventional matching -> coefficient view.

The heavyweight objects here are the Jones-Wenzl projectors, built by
the Wenzl recursion, and the trivalent vertex morphisms built from
them; these and the crossing morphisms are memoized in memory with
``functools.cache``.

Closed networks (theta graphs and rings of smoothing columns) are
composed from these pieces and closed by the Markov trace; they serve
as the first-principles oracle for the closed-form evaluations
elsewhere.  Each network's last seam is closed without being built:
``seam_closure(f, g)`` is ``closure(compose(f, g))``, but for each pair
of matchings it only counts the loops of the picture closed at both
seams.  ``closure`` and ``close_pair`` stay as the reference it is
tested against.  The theta network carries one projector per edge: its
vertices are bare turns, and each projector is applied on its own cable
(``boxed``), since every extra copy of an idempotent multiplies the
matchings that ``compose`` glues.  A closed network's value depends only on how its
strands join.  Since the node order is cyclic, ``quarter_turn`` is a
relabeling: it turns a column of two cables so that columns set side
by side in a ring stack instead, and ``close_ring`` closes the ring as
the trace of that stack, at the width of one column, its last seam
closed by ``seam_closure``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .algebra import (
    DELTA,
    ONE,
    RF_ZERO,
    ZERO,
    AdmissibilityError,
    LaurentPoly,
    RationalFn,
    _pack,
    _unpack,
    admissible,
    common_den,
    cyclotomic4,
    divide_out,
    factorial_factors,
    vec_sum,
)

# -- raw matching plumbing -------------------------------------------


def idpair(n: int) -> tuple[int, ...]:
    """Identity matching on n strands (as an n -> n morphism)."""
    return tuple(2 * n - 1 - i for i in range(2 * n))


def is_planar_pair(pair: tuple[int, ...]) -> bool:
    stack = []
    seen = set()
    for i, j in enumerate(pair):
        if i in seen:
            if not stack or stack[-1] != i:
                return False
            stack.pop()
        else:
            seen.add(j)
            stack.append(j)
    return not stack


def _seam_sides(fb: int, ft: int, gt: int):
    """The (label, seam_nodes, outer_nodes) of each side of a seam, for
    ``_seam_view``: f is fb -> ft below it, g is ft -> gt above it.

    Seam position p is f's top node fb + ft-1-p and g's bottom node p;
    f's bottom node i is output node i, g's top node ft + j is fb + j.
    """
    return (([~i for i in range(fb)] + [ft - 1 - a for a in range(ft)],
             range(fb + ft - 1, fb - 1, -1), range(fb)),
            (list(range(ft)) + [~(fb + j) for j in range(gt)],
             range(ft), range(ft, ft + gt)))


def _seam_view(pair, label, seam_nodes, outer_nodes):
    """A matching as the seam sees it, for ``_seam_glue``.

    ``label[node]`` is the node's seam position, or ~o for the output
    node o it becomes; ``seam_nodes`` lists the seam's nodes by
    position and ``outer_nodes`` the others by output node.  Returns
    (seam, starts, template, caps): seam[p] is the seam partner of
    position p, or ~o for the output node its arc reaches; starts lists
    (o, p) for those arcs; template holds, for each outer node, its
    output partner along an arc with no end on the seam, else -1; caps
    counts the arcs with both ends on the seam, which bounds the loops
    a glue can close.
    """
    seam = [label[pair[i]] for i in seam_nodes]
    template = [~b if (b := label[pair[i]]) < 0 else -1 for i in outer_nodes]
    starts = [(~b, p) for p, b in enumerate(seam) if b < 0]
    return seam, starts, template, (len(seam) - len(starts)) // 2


def _seam_glue(fv, gv):
    """Glue two seam views (``_seam_view``): f below the seam, g above.

    Copies the two outer-arc templates and walks only what crosses the
    seam: each path from an outer node, alternating g's and f's seam
    arcs until it leaves, then each closed loop left over.  Returns
    (pair, loops) for the composite.
    """
    fs, fstarts, ftmpl, fcaps = fv
    gs, gstarts, gtmpl, gcaps = gv
    out = ftmpl + gtmpl
    seen = bytearray(len(fs))
    # a path from an f node first crosses the seam along a g arc
    for starts, first, second in ((fstarts, gs, fs), (gstarts, fs, gs)):
        for o, x in starts:
            if out[o] < 0:
                while True:
                    seen[x] = 1
                    y = first[x]
                    if y < 0:
                        break
                    seen[y] = 1
                    y = second[y]
                    if y < 0:
                        break
                    x = y
                out[o], out[~y] = ~y, o
    # what no path reached lies on loops, and a loop needs a cap of each
    loops = 0
    x = seen.find(0) if fcaps and gcaps else -1
    while x >= 0:
        loops += 1
        while not seen[x]:
            y = fs[x]
            seen[x] = seen[y] = 1
            x = gs[y]
        x = seen.find(0, x)
    return tuple(out), loops


def tensor_pair(p1, b1, t1, p2, b2, t2):
    """Place p2 to the right of p1."""
    B, T = b1 + b2, t1 + t2
    out = [-1] * (B + T)

    def m1(x):
        if x < b1:
            return x
        return B + T - 1 - (t1 - 1 - (x - b1))

    def m2(x):
        if x < b2:
            return b1 + x
        return B + T - 1 - (t1 + t2 - 1 - (x - b2))

    for i in range(b1 + t1):
        out[m1(i)] = m1(p1[i])
    for j in range(b2 + t2):
        out[m2(j)] = m2(p2[j])
    return tuple(out)


def close_pair(pair, n):
    """Trace an n -> n matching: join bottom i to top position i."""
    loops = 0
    seen = [False] * (2 * n)
    for s in range(2 * n):
        if seen[s]:
            continue
        loops += 1
        cur = s
        while not seen[cur]:
            seen[cur] = True
            nxt = pair[cur]
            seen[nxt] = True
            if nxt < n:
                cur = n + (n - 1 - nxt)
            else:
                cur = n - 1 - (nxt - n)
    return loops


@dataclass(frozen=True)
class Matching:
    """A planar pairing presented as a bottom -> top morphism shape."""

    bot: int
    top: int
    pair: tuple[int, ...]

    def __post_init__(self):
        if len(self.pair) != self.bot + self.top:
            raise ValueError(
                f"pairing has {len(self.pair)} nodes, expected {self.bot + self.top}"
            )
        for i, j in enumerate(self.pair):
            if j == i or not 0 <= j < len(self.pair) or self.pair[j] != i:
                raise ValueError(f"not an involution at node {i}")
        if not is_planar_pair(self.pair):
            raise ValueError("pairing has crossing arcs")

    def arcs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in enumerate(self.pair) if i < j]


@functools.cache
def _delta_pow(k: int) -> LaurentPoly:
    return DELTA**k


class TLMorphism:
    """Linear combination of planar matchings over a common denominator.

    ``nums`` maps raw pair tuples to LaurentPoly numerators; the true
    coefficient of a matching is nums[pair] / prod_d Phi_d(A^4)^den[d],
    with the denominator kept as its exponent vector ``den``.  ``terms``
    presents the matching -> RationalFn view.
    """

    __slots__ = ("bot", "top", "nums", "den")

    def __init__(self, bot: int, top: int, nums: dict, den: dict[int, int]):
        if (bot + top) % 2:
            raise ValueError(f"odd total boundary {bot}+{top}")
        self.bot, self.top, self.nums, self.den = bot, top, nums, den
        self._strip()

    @classmethod
    def _raw(cls, bot, top, nums, den) -> "TLMorphism":
        out = cls.__new__(cls)
        out.bot, out.top, out.nums, out.den = bot, top, nums, den
        return out

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "TLMorphism":
        if n < 0:
            raise ValueError(f"identity width {n} is negative")
        return cls._raw(n, n, {idpair(n): ONE}, {})

    @classmethod
    def zero(cls, bot: int, top: int) -> "TLMorphism":
        return cls._raw(bot, top, {}, {})

    @classmethod
    def hook(cls, n: int, i: int) -> "TLMorphism":
        """The cup-cap generator e_i on n strands (0-indexed position):
        the identity on two strands, turned a quarter turn."""
        if not 0 <= i <= n - 2:
            raise ValueError(f"hook position {i} out of range for {n} strands")
        return boxed(quarter_turn(cls.identity(2)), i, n - i - 2)

    @classmethod
    def cap(cls, n: int, i: int) -> "TLMorphism":
        """n -> n-2, joining bottom points i, i+1."""
        if not 0 <= i <= n - 2:
            raise ValueError(f"cap position {i} out of range for {n} strands")
        return boxed(capnest(1), i, n - i - 2)

    @classmethod
    def cup(cls, n: int, i: int) -> "TLMorphism":
        """n -> n+2, inserting a new nested arc at top position i."""
        if not 0 <= i <= n:
            raise ValueError(f"cup position {i} out of range for {n} strands")
        return boxed(cupnest(1), i, n - i)

    # -- views --------------------------------------------------------

    @property
    def terms(self) -> dict:
        """Matching -> RationalFn coefficient view (built on demand)."""
        return {p: self.coeff(p) for p in self.nums}

    def coeff(self, pair) -> RationalFn:
        num = self.nums.get(tuple(pair))
        if num is None:
            return RF_ZERO
        return RationalFn._raw(num, self.den).reduce()

    def matchings(self) -> list[Matching]:
        return [Matching(self.bot, self.top, p) for p in self.nums]

    # -- linear structure ---------------------------------------------

    def _strip(self) -> None:
        # divide each denominator factor out of every numerator that allows it
        if self.den:
            self.nums, self.den = divide_out(self.nums, self.den)

    def __add__(self, other: "TLMorphism") -> "TLMorphism":
        if (self.bot, self.top) != (other.bot, other.top):
            raise ValueError("adding morphisms of different shapes")
        same = self.den == other.den
        if same:
            den, acc = self.den, dict(self.nums)
        else:
            den, lift, lift_other = common_den(self.den, other.den)
            acc = {p: n * lift for p, n in self.nums.items()}
        for pair, num in other.nums.items():
            if not same:
                num = num * lift_other
            s = acc.get(pair)
            s = num if s is None else s + num
            if s.is_zero():
                acc.pop(pair, None)
            else:
                acc[pair] = s
        out = TLMorphism._raw(self.bot, self.top, acc, den)
        if not same:
            out._strip()
        return out

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c) -> "TLMorphism":
        if isinstance(c, RationalFn):
            num_c, den_c = c.num, c.den_vec
        else:
            num_c, den_c = LaurentPoly({0: c}) if isinstance(c, int) else c, {}
        if num_c.is_zero():
            return TLMorphism.zero(self.bot, self.top)
        nums = {p: n * num_c for p, n in self.nums.items()}
        out = TLMorphism._raw(self.bot, self.top, nums, vec_sum(self.den, den_c))
        if den_c:
            out._strip()
        return out

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other):
        if not isinstance(other, TLMorphism):
            return NotImplemented
        if (self.bot, self.top) != (other.bot, other.top):
            return False
        if set(self.nums) != set(other.nums):
            return (self - other).is_zero()
        if self.den == other.den:
            return self.nums == other.nums
        _, lift, lift_other = common_den(self.den, other.den)
        return all(num * lift == other.nums[pair] * lift_other
                   for pair, num in self.nums.items())

    def __hash__(self):
        raise TypeError("TLMorphism is not hashable")

    def __repr__(self):
        return f"TLMorphism({self.bot}->{self.top}, {len(self.nums)} terms)"


def compose(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    """Stack g on top of f (f first).  Needs f.top == g.bot.

    Every numerator is packed once into an int on one exponent lattice
    (``algebra._pack``), at X = 2^(8*width) with digits wide enough for
    any coefficient of the result, so the double loop over matching
    pairs only adds ints.  Each matching is read once from the seam
    (``_seam_view``), so a pair walks only the seam (``_seam_glue``).
    Each P2 is multiplied by D[L] once per loop count L it can close,
    where D[L] packs A^(2*lmax) * delta^L; for each P1 the pairs sum
    into each output matching, and that sum is multiplied by P1 once.
    The denominator is cancelled on the packed sums by int division
    (``_cancel``): a nonzero remainder by Phi_d(X) proves that Phi_d(A^4)
    does not divide the sum, and quotients whose balanced digits stay
    below X / (2 prod |Phi|_1) are the polynomial quotients; if one does
    not, the unpacked sums go to ``algebra.divide_out``.  Each sum is
    read back once.
    """
    if f.top != g.bot:
        raise ValueError(f"cannot compose {f.top} outputs into {g.bot} inputs")
    fb, ft, gt = f.bot, f.top, g.top
    if not f.nums or not g.nums:
        return TLMorphism.zero(fb, gt)
    # each closed loop takes two seam points
    lmax = ft // 2
    lo_f, lo_g, step, width, loop = _lattice(f, g, lmax)
    f_side, g_side = _seam_sides(fb, ft, gt)
    packed_f = [(_seam_view(p, *f_side), _pack(n.terms, lo_f, step, width))
                for p, n in f.nums.items()]
    packed_g = []
    for p, n in g.nums.items():
        view = _seam_view(p, *g_side)
        c2 = _pack(n.terms, lo_g, step, width)
        packed_g.append((view, [c2 * loop[k] for k in range(view[3] + 1)]))
    sums: dict = {}
    for fv, c1 in packed_f:
        part: dict = {}
        for gv, c2 in packed_g:
            pair, loops = _seam_glue(fv, gv)
            part[pair] = part.get(pair, 0) + c2[loops]
        for pair, s in part.items():
            sums[pair] = sums.get(pair, 0) + c1 * s
    nums, den = _cancel(sums, vec_sum(f.den, g.den), lo_f + lo_g - 2 * lmax,
                        step, width)
    return TLMorphism._raw(fb, gt, nums, den)


def _lattice(f: TLMorphism, g: TLMorphism, lmax: int):
    """One packing for the numerators of f and g, glued into sums that
    close at most lmax loops: (lo_f, lo_g, step, width, loop).

    Both sides lie on exponents lo + step*i, step 1 or 2; loop[L] packs
    A^(2*lmax) * delta^L.  Since |delta^L|_1 = 2^L, no coefficient of a
    sum over all pairs exceeds |f|_1 |g|_1 2^lmax, and the digits of
    ``width`` bytes hold that and a sign.
    """
    f_terms = [n.terms for n in f.nums.values()]
    g_terms = [n.terms for n in g.nums.values()]
    lo_f = min(min(t) for t in f_terms)
    lo_g = min(min(t) for t in g_terms)
    step = math.gcd(2, *(e - lo_f for t in f_terms for e in t),
                    *(e - lo_g for t in g_terms for e in t))
    norm = (sum(abs(c) for t in f_terms for c in t.values())
            * sum(abs(c) for t in g_terms for c in t.values()))
    width = (norm << lmax).bit_length() // 8 + 1
    loop = [_pack(_delta_pow(k).terms, -2 * lmax, step, width)
            for k in range(lmax + 1)]
    return lo_f, lo_g, step, width, loop


def _cancel(sums: dict, den: dict[int, int], lo: int, step: int,
            width: int) -> tuple[dict, dict[int, int]]:
    """Read packed sums back over ``den``, each factor divided out as
    often as all of them allow, as ``algebra.divide_out`` does.

    Each sum is S(X) for the polynomial S it packs, every coefficient of
    which lies below X/2 in absolute value (``compose`` sizes the digits
    so), and Phi_d(A^4) packs as Phi_d(X).  If Phi_d divides S as
    polynomials, Phi_d(X) divides S(X) as ints, so a nonzero remainder
    of ``divmod`` proves that it does not.  A zero remainder proves
    nothing by itself, so the quotients are checked once, at the end:
    if every balanced digit of each quotient q, read as the polynomial
    Q, is below X / (2 prod |Phi|_1) in absolute value, then Q times the
    factors divided out has coefficients below X/2 and the value S(X)
    at X, so it is S, and Q is the polynomial quotient.  Every division
    then was one of polynomials, and every remainder stopped where
    ``divide_out`` stops.  Otherwise the undivided sums go to
    ``divide_out``.
    """
    quos = {pair: s for pair, s in sums.items() if s}
    left: dict[int, int] = {}
    bound = 1
    for d, e in den.items():
        phi = cyclotomic4(d)
        packed = _pack(phi.terms, 0, step, width)
        while e:
            divided = {}
            for pair, s in quos.items():
                q, r = divmod(s, packed)
                if r:
                    break
                divided[pair] = q
            else:
                quos, e = divided, e - 1
                bound *= sum(map(abs, phi.terms.values()))
                continue
            break
        if e:
            left[d] = e
    nums = _read_back(quos, lo, step, width)
    if bound == 1:
        return nums, left
    if nums is not None:
        top = max((max(map(abs, n.terms.values())) for n in nums.values()),
                  default=0)
        if top * bound < 1 << (8 * width - 1):
            return nums, left
    return divide_out(_read_back(sums, lo, step, width), den)


def _read_back(packed: dict, lo: int, step: int, width: int) -> dict | None:
    """Unpack each nonzero value into a LaurentPoly, or None if one of
    them has more balanced digits than its bit length allows for."""
    out: dict = {}
    for pair, s in packed.items():
        if s:
            try:
                terms = _unpack(s, lo, step, width)
            except OverflowError:
                return None
            num = out[pair] = LaurentPoly.__new__(LaurentPoly)
            num.terms = terms
    return out


def tensor(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    """Place g to the right of f."""
    acc: dict = {}
    for p1, c1 in f.nums.items():
        for p2, c2 in g.nums.items():
            pair = tensor_pair(p1, f.bot, f.top, p2, g.bot, g.top)
            acc[pair] = c1 * c2
    out = TLMorphism._raw(f.bot + g.bot, f.top + g.top, acc, vec_sum(f.den, g.den))
    out._strip()
    return out


def boxed(g: TLMorphism, left: int, right: int) -> TLMorphism:
    """g with identity wires added on both sides."""
    if min(left, right) < 0:
        raise ValueError(f"boxed width {min(left, right)} is negative")
    out = g
    if left:
        out = tensor(TLMorphism.identity(left), out)
    if right:
        out = tensor(out, TLMorphism.identity(right))
    return out


def closure(f: TLMorphism) -> RationalFn:
    """Markov trace: join top to bottom around the side."""
    if f.bot != f.top:
        raise ValueError(f"cannot close a {f.bot} -> {f.top} morphism")
    total = ZERO
    for pair, num in f.nums.items():
        total = total + num * _delta_pow(close_pair(pair, f.bot))
    return RationalFn._raw(total, f.den).reduce()


def seam_closure(f: TLMorphism, g: TLMorphism) -> RationalFn:
    """closure(compose(f, g)) for f: a -> b and g: b -> a, without the
    composite.

    Closed at both seams, the picture glues each node of g to one node
    of f: g's bottom node p to f's top node a+b-1-p, and g's top node t
    (top position a+b-1-t) to f's bottom node a+b-1-t around the side.
    Mapped back by x -> a+b-1-x, g's arcs join f's nodes, and a pair of
    matchings only counts the loops the two sets of arcs close, one walk
    over f's nodes.  Both sides are packed on one lattice as in
    ``compose`` (``_lattice``); a closed pair has at most (a+b)/2
    loops, so each g numerator is multiplied once by every D[L] it may
    need, the terms of each f matching sum before they are multiplied
    by its numerator, and one polynomial is read back and reduced over
    f.den + g.den.
    """
    if (f.bot, f.top) != (g.top, g.bot):
        raise ValueError(f"cannot close a {f.bot} -> {f.top} morphism "
                         f"against a {g.bot} -> {g.top} one")
    if not f.nums or not g.nums:
        return RF_ZERO
    m = f.bot + f.top
    lmax = m // 2
    lo_f, lo_g, step, width, loop = _lattice(f, g, lmax)
    packed_g = []
    for p, n in g.nums.items():
        c2 = _pack(n.terms, lo_g, step, width)
        packed_g.append(([m - 1 - p[m - 1 - x] for x in range(m)],
                         [c2 * d for d in loop]))
    total, first = 0, 0 if m else -1
    for fp, n in f.nums.items():
        s = 0
        for gp, c2 in packed_g:
            loops = 0
            seen = bytearray(m)
            x = first
            while x >= 0:
                loops += 1
                while not seen[x]:
                    y = fp[x]
                    seen[x] = seen[y] = 1
                    x = gp[y]
                x = seen.find(0, x)
            s += c2[loops]
        total += _pack(n.terms, lo_f, step, width) * s
    num = LaurentPoly.__new__(LaurentPoly)
    num.terms = _unpack(total, lo_f + lo_g - 2 * lmax, step, width)
    return RationalFn._raw(num, vec_sum(f.den, g.den)).reduce()


def quarter_turn(f: TLMorphism) -> TLMorphism:
    """A 2h -> 2h morphism turned a quarter turn, a relabeling only.

    Node i becomes node (i + h) mod 4h: the left side (top-left and
    bottom-left h points) becomes the bottom and the right side the top,
    so turned columns stack where they stood side by side.
    """
    if f.bot != f.top or f.bot % 2:
        raise ValueError(f"cannot turn a {f.bot} -> {f.top} morphism")
    h, m = f.bot // 2, 2 * f.bot
    nums = {}
    for pair, num in f.nums.items():
        turned = [0] * m
        for i, j in enumerate(pair):
            turned[(i + h) % m] = (j + h) % m
        nums[tuple(turned)] = num
    return TLMorphism._raw(f.bot, f.top, nums, f.den)


# -- Jones-Wenzl projectors ------------------------------------------

@functools.cache
def jones_wenzl(n: int) -> TLMorphism:
    """The n-strand projector, by the Wenzl recursion.

    f(0) and f(1) are identities; f(n) = f(n-1)x1 - (delta(n-2)/delta(n-1))
    * (f(n-1)x1) e_{n-1} (f(n-1)x1).  Memoized in process.  Since
    delta(k) = (-1)^k A^(-2k) prod_{d | k+1, d >= 2} Phi_d(A^4), the
    coefficient is a difference of exponent vectors.
    """
    if n < 0:
        raise ValueError(f"projector color must be >= 0, got {n}")
    if n <= 1:
        return TLMorphism.identity(n)
    prev = tensor(jones_wenzl(n - 1), TLMorphism.identity(1))
    hooked = compose(compose(prev, TLMorphism.hook(n, n - 2)), prev)
    # delta(n-2)/delta(n-1) = -[n-1]!^2 / ([n-2]! [n]!)
    shift, vec = factorial_factors((n - 1, n - 1), (n - 2, n))
    coeff = RationalFn.from_factors(LaurentPoly.monomial(shift, -1), vec)
    return prev - hooked.scaled(coeff)


def capnest(m: int) -> TLMorphism:
    """2m -> 0, m nested caps."""
    return TLMorphism._raw(2 * m, 0, {idpair(m): ONE}, {})


def cupnest(m: int) -> TLMorphism:
    """0 -> 2m, m nested cups."""
    return TLMorphism._raw(0, 2 * m, {idpair(m): ONE}, {})


def _turn(a: int, b: int, c: int, orientation: str) -> TLMorphism:
    """The bare trivalent vertex: its strands turned, no projectors.

    "up" is the (a+b) -> c morphism, "down" the c -> (a+b) mirror.
    """
    if not admissible(a, b, c):
        raise AdmissibilityError(f"({a}, {b}, {c}) is not an admissible triple")
    x, y, z = (a + b - c) // 2, (a + c - b) // 2, (b + c - a) // 2
    if orientation == "up":
        return boxed(capnest(x), y, z)
    if orientation == "down":
        return boxed(cupnest(x), y, z)
    raise ValueError(f"orientation must be 'up' or 'down', got {orientation!r}")


@functools.cache
def vertex_morphism(a: int, b: int, c: int, orientation: str = "up") -> TLMorphism:
    """The clasped trivalent vertex as a morphism.

    orientation "up": legs a and b enter from below (a on the left),
    leg c leaves above; the morphism is (a+b) -> c.  "down" is the
    mirror, c -> (a+b).  All three legs carry projectors.  Memoized.
    """
    turn = _turn(a, b, c, orientation)
    legs = tensor(jones_wenzl(a), jones_wenzl(b))
    fc = jones_wenzl(c)
    if orientation == "up":
        return compose(compose(legs, turn), fc)
    return compose(compose(fc, turn), legs)


@functools.cache
def channel_element(n: int, p: int) -> TLMorphism:
    """Two n-cables joined through a 2p channel: a 2n -> 2n morphism.

    compose(vertex up, vertex down) for the triple (n, n, 2p); the
    p = n case is the full 2n-strand projector (clasp absorption), and
    p = 0 is the clasped turn-back.  Memoized.
    """
    if not 0 <= p <= n:
        raise ValueError(f"channel needs 0 <= p <= n, got p={p}, n={n}")
    return compose(vertex_morphism(n, n, 2 * p, "up"),
                   vertex_morphism(n, n, 2 * p, "down"))


@functools.cache
def crossing_morphism(sign: int) -> TLMorphism:
    """Kauffman expansion of a single crossing, vertical frame.

    sign -1: A^(-1) . identity + A . hook (the twist-region kind);
    sign +1 is the mirror image.  Memoized.
    """
    e = -1 if sign < 0 else 1
    return (TLMorphism.identity(2).scaled(LaurentPoly.monomial(e))
            + TLMorphism.hook(2, 0).scaled(LaurentPoly.monomial(-e)))


# -- closed networks ----------------------------------------------------


def _clasp(m: TLMorphism, n: int, left: int, right: int) -> TLMorphism:
    """m with the n-strand projector on top of its own cable.

    The cable has ``left`` strands to its left and ``right`` to its
    right; projectors on fewer than two strands are identities.
    """
    if n < 2:
        return m
    return compose(m, boxed(jones_wenzl(n), left, right))


def theta_network(a: int, b: int, c: int) -> RationalFn:
    """Theta network: two vertices joined along a, b, c.

    One projector per edge, each on its own cable, with the bare turns
    of the two vertices between them: JW_c, the c -> (a+b) turn, JW_a,
    JW_b, the (a+b) -> c turn, closed by the trace at that last seam
    (``seam_closure``).  Projectors are idempotent, so this is the fully
    clasped network.
    """
    m = compose(jones_wenzl(c), _turn(a, b, c, "down"))
    m = _clasp(_clasp(m, a, 0, b), b, a, 0)
    return seam_closure(m, _turn(a, b, c, "up"))


def close_ring(columns: Sequence[TLMorphism]) -> RationalFn:
    """Close 2n -> 2n columns into a network and evaluate it.

    The columns sit side by side and close cyclically: the right cable
    of each column bends into the left cable of the next, and the last
    wraps around to the first.  Quarter-turned (``quarter_turn``), the
    columns stack in ring order instead, and the Markov trace of the
    stack closes the ring at the width of one column: the first r - 1
    turned columns are composed, and ``seam_closure`` closes the last
    seam against the last column without building the stack; a single
    column is closed by ``closure``.  A column closed around its side is
    the ring of it and the identity on its cables.  A ring needs at
    least one column.
    """
    if not columns:
        raise ValueError("a ring needs at least one column")
    turned = [quarter_turn(c) for c in columns]
    if len(turned) == 1:
        return closure(turned[0])
    return seam_closure(functools.reduce(compose, turned[:-1]), turned[-1])


@functools.cache
def cabled_crossing(n: int, sign: int) -> TLMorphism:
    """One crossing of two n-cables, as n^2 single crossings.

    A 2n -> 2n morphism: the right bundle passes across the left one,
    every elementary crossing carrying the given sign.  No projectors
    are attached; clasp the legs separately when needed.  Memoized.
    """
    if n < 1:
        raise ValueError(f"cabled_crossing needs n >= 1, got {n}")
    x = crossing_morphism(sign)
    out = TLMorphism.identity(2 * n)
    # move each strand of the right bundle across the left bundle
    for i in range(n):
        for j in range(n - 1 + i, i - 1, -1):
            out = compose(out, boxed(x, j, 2 * n - j - 2))
    return out


def cabled_kink(n: int, sign: int) -> TLMorphism:
    """The bare kink of an n-cable: an n -> n morphism, no projector.

    The cable's n strands cross the left legs of n nested cups and close
    onto their right legs: ``boxed(cupnest(n), n, 0)``, then
    ``cabled_crossing(n, sign)`` on the first 2n strands, then
    ``boxed(capnest(n), n, 0)``, built in another order.  Left strand s,
    from the innermost (s = n-1) out, passes rightward across the n legs
    (sigma_s sigma_(s+1) ... sigma_(s+n-1)), and is capped onto its
    return leg at once.  ``cabled_crossing`` passes the right bundle
    leftward instead; both braid words have n^2 letters of one sign and
    swap the two bundles, so both are reduced words of one permutation,
    hence one positive braid (Matsumoto), and the bracket sends them to
    one morphism.  Each cap lies right of every crossing still to come,
    so capping early is the interchange law.

    While strand s crosses, strands 0..s-1 run straight through, so the
    morphism is the identity on them beside a block of 2n+2 boundary
    points (bottom s..n-1, top s..n+2s+1): no stage holds more than
    Catalan(n+1) matchings, 42 at n = 4, where ``cabled_crossing(4,
    sign)`` alone reaches 1,252.
    """
    if n < 1:
        raise ValueError(f"cabled_kink needs n >= 1, got {n}")
    x = crossing_morphism(sign)
    out = boxed(cupnest(n), n, 0)
    w = 3 * n
    for s in range(n - 1, -1, -1):
        # strand s crosses the n cup legs to its right, then caps onto
        # its partner leg, the innermost one still open
        for j in range(s, s + n):
            out = compose(out, boxed(x, j, w - j - 2))
        out = compose(out, boxed(TLMorphism.cap(2, 0), s + n, w - s - n - 2))
        w -= 2
    return out


def turnback(n: int, i: int) -> TLMorphism:
    """Bare i-th clasp-smoothing pattern of a two-cable crossing.

    A 2n -> 2n morphism: i strands pass straight through on each outer
    side while the inner 2(n-i) turn back as nested bends, top and
    bottom: the identity on those strands turned a quarter turn.
    turnback(n, n) is the identity.  No projectors attached.
    """
    if not 0 <= i <= n:
        raise ValueError(f"turnback needs 0 <= i <= n, got i={i}, n={n}")
    return boxed(quarter_turn(TLMorphism.identity(2 * (n - i))), i, i)
