"""Coefficient windows, tail estimates, and twist-family rate checks.

Everything here compares the exact bottom ends of polynomials.  A window
is a finite run of consecutive coefficients from the minimum degree
upward, computed as a truncated series (``series``); two windows "agree
to n" when their first n entries match after each list is flipped to
start positive.  Rate checkers build a family of rings of twist columns
(``series.Ring``), compute every member's window, and verify stepwise
agreement at the claimed depth.

Two grading currencies appear and are never mixed: ``A``-unit windows step
by one in the A-exponent of a raw bracket (so they include the interleaved
zeros), while ``q``-unit windows step by one along the integer q-lattice
of a reduced polynomial, where every planar diagram's lies.  Every report
records which currency it used; its anchors are ints in it.
"""

from __future__ import annotations

import json
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from .diagram import LinkDiagram
from .invariants import (
    BudgetError,
    LayoutError,
    Ring,
    _ring_layout,
    family_windows,
)
from .series import (
    UNIT_NAMES,
    CoeffList,
    WindowError,
    window_from_bracket,
    window_from_reduced,
)

__all__ = [
    "CoeffList",
    "ExpressionError",
    "FamilyExpr",
    "FamilySpec",
    "MemberError",
    "StepCheck",
    "TailReport",
    "WindowError",
    "check_bracket_rate",
    "check_color_stability",
    "check_colored_rate",
    "family_tail",
    "n_equivalent",
    "normalize",
    "pretzel_family",
    "reduced_windows",
    "stable_prefix",
    "window_from_bracket",
    "window_from_reduced",
]

class ExpressionError(ValueError):
    """A family expression failed to parse; ``position`` is the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class MemberError(ValueError):
    """A family member could not be built or evaluated."""

    def __init__(self, message: str, parameter: int):
        super().__init__(message)
        self.parameter = parameter


def normalize(c: CoeffList) -> CoeffList:
    """Strip the anchor and flip the global sign so the list starts positive."""
    if not c.coeffs:
        raise WindowError("cannot normalize an empty coefficient list")
    if c.coeffs[0] == 0:
        raise WindowError("anchor must be a nonzero coefficient")
    coeffs = c.coeffs if c.coeffs[0] > 0 else tuple(-x for x in c.coeffs)
    return CoeffList(coeffs, c.units, 0, True)


def n_equivalent(p1: CoeffList, p2: CoeffList, n: int) -> bool:
    """Whether the first ``n`` coefficients agree up to one global sign."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if p1.units != p2.units:
        raise WindowError(f"grading units differ: {p1.units!r} vs {p2.units!r}")
    if len(p1.coeffs) < n or len(p2.coeffs) < n:
        raise WindowError(
            f"insufficient window: need {n} coefficients, "
            f"have {len(p1.coeffs)} and {len(p2.coeffs)}"
        )
    if n == 0:
        return True
    return normalize(p1).coeffs[:n] == normalize(p2).coeffs[:n]


def stable_prefix(p1: CoeffList, p2: CoeffList) -> int:
    """Largest n with the windows n-equivalent, capped by the shorter window."""
    if p1.units != p2.units:
        raise WindowError(f"grading units differ: {p1.units!r} vs {p2.units!r}")
    if not p1.coeffs or not p2.coeffs:
        return 0
    return _common_prefix(normalize(p1).coeffs, normalize(p2).coeffs)


def _common_prefix(a: Sequence[int], b: Sequence[int]) -> int:
    cap = min(len(a), len(b))
    n = 0
    while n < cap and a[n] == b[n]:
        n += 1
    return n


# --- family expressions -------------------------------------------------

# ASCII digits and names only: str.isdigit and \d also take "²" and the like
_TOKEN = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*()])|(\S)")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    out: list[tuple[str, object, int]] = []
    for m in _TOKEN.finditer(text):
        num, name, op, bad = m.groups()
        at = m.start()
        if bad is not None:
            raise ExpressionError(f"unexpected character {bad!r}", at)
        if num is not None:
            out.append(("int", int(num), at))
        elif name is not None:
            out.append(("name", name, at))
        else:
            out.append((op, op, at))
    out.append(("end", "", len(text)))
    return out


@dataclass(frozen=True)
class FamilyExpr:
    """Integer expression in at most one parameter: ints, + - *, parens.

    A run of + and - is one "sum" node of signed terms, and a run of * one
    "mul" node of factors, so a long flat expression is evaluated without
    one Python call per operator; only parentheses and unary minus nest.
    """

    text: str
    var: str | None
    ast: tuple = field(repr=False, compare=False)

    @classmethod
    def parse(cls, text: str) -> "FamilyExpr":
        tokens = _tokenize(text)
        state = {"pos": 0, "var": None}

        def peek():
            return tokens[state["pos"]]

        def take():
            tok = tokens[state["pos"]]
            state["pos"] += 1
            return tok

        def atom():
            kind, value, at = take()
            if kind == "int":
                return ("num", value)
            if kind == "name":
                if state["var"] is None:
                    state["var"] = value
                elif state["var"] != value:
                    raise ExpressionError(
                        f"expressions use one parameter; saw {state['var']!r} "
                        f"and {value!r}",
                        at,
                    )
                return ("var",)
            if kind == "-":
                return ("neg", atom())
            if kind == "(":
                node = expr()
                kind2, _, at2 = take()
                if kind2 != ")":
                    raise ExpressionError("expected ')'", at2)
                return node
            raise ExpressionError("expected a number, parameter, or '('", at)

        def term():
            factors = [atom()]
            while peek()[0] == "*":
                take()
                factors.append(atom())
            return factors[0] if len(factors) == 1 else ("mul", factors)

        def expr():
            terms = [(1, term())]
            while peek()[0] in ("+", "-"):
                sign = 1 if take()[0] == "+" else -1
                terms.append((sign, term()))
            return terms[0][1] if len(terms) == 1 else ("sum", terms)

        try:
            node = expr()
        except RecursionError:
            raise ExpressionError("expression nests too deeply",
                                  peek()[2]) from None
        kind, _, at = peek()
        if kind != "end":
            raise ExpressionError("unexpected trailing input", at)
        return cls(text=text, var=state["var"], ast=node)

    def __call__(self, value: int) -> int:
        def ev(node):
            op = node[0]
            if op == "num":
                return node[1]
            if op == "var":
                return value
            if op == "neg":
                return -ev(node[1])
            if op == "sum":
                total = 0
                for sign, term in node[1]:
                    total += sign * ev(term)
                return total
            product = 1
            for factor in node[1]:
                product *= ev(factor)
            return product

        return ev(self.ast)

    def __str__(self) -> str:
        return self.text


def _as_expr(x) -> FamilyExpr:
    if isinstance(x, FamilyExpr):
        return x
    if isinstance(x, str):
        return FamilyExpr.parse(x)
    if isinstance(x, int):
        return FamilyExpr(text=str(x), var=None, ast=("num", x))
    raise TypeError(f"cannot use {x!r} as a family expression")


def _coerce_rate(rate) -> tuple[Callable[[int], int], str]:
    if isinstance(rate, (FamilyExpr, str, int)):
        e = _as_expr(rate)
        return e, e.text
    if callable(rate):
        return rate, getattr(rate, "__name__", "<rate>")
    raise TypeError("rate must be an expression, string, integer, or callable")


# --- diagram families ---------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """A one-parameter family of rings of twist columns.

    ``base`` is a ``Ring``; ``sizes`` maps column positions 1..r, in ring
    order, to the column's crossing count as an expression in the
    parameter, and unlisted columns keep their base size.  ``color`` gives
    the reduced polynomial index (the cable carries one less strand).
    The range ``start..stop`` is inclusive.  Every member is a ``Ring``.
    """

    base: Ring
    sizes: tuple[tuple[int, FamilyExpr], ...]
    color: FamilyExpr
    start: int
    stop: int

    def __post_init__(self) -> None:
        raw = self.sizes
        if isinstance(raw, Mapping):
            raw = raw.items()
        pairs = tuple(sorted((operator.index(col), _as_expr(ex)) for col, ex in raw))
        object.__setattr__(self, "sizes", pairs)
        object.__setattr__(self, "color", _as_expr(self.color))
        if self.stop < self.start:
            raise ValueError(f"empty parameter range {self.start}..{self.stop}")
        for col, _ in pairs:
            if not 1 <= col <= len(self.base.counts):
                raise LayoutError(f"region {col} is not a column of the ring")

    def parameters(self) -> range:
        return range(self.start, self.stop + 1)

    def member(self, k: int) -> Ring:
        counts = list(self.base.counts)
        for col, ex in self.sizes:
            target = ex(k)
            if target < 0:
                raise MemberError(
                    f"region {col} size {ex.text!r} evaluates to {target} "
                    f"at parameter {k}",
                    k,
                )
            counts[col - 1] = target
        return replace(self.base, counts=tuple(counts))

    def member_color(self, k: int) -> int:
        n = self.color(k)
        if n < 1:
            raise MemberError(
                f"color {self.color.text!r} evaluates to {n} at parameter {k}", k
            )
        return n

    @property
    def var(self) -> str:
        """The parameter's name: the first size expression's variable,
        then the color's, then "k"."""
        return next((e.var for _, e in self.sizes if e.var), None) \
            or self.color.var or "k"

    def describe(self) -> str:
        sizes = ", ".join(f"{rid}: {e.text}" for rid, e in self.sizes)
        return (
            f"regions {{{sizes}}}; color {self.color.text}; "
            f"{self.var} = {self.start}..{self.stop}"
        )


def pretzel_family(sizes, color, start: int, stop: int) -> FamilySpec:
    """Family of pretzels, one size expression per column.

    ``sizes`` may be a comma-separated string like ``"8,6,k"`` or a sequence
    of expressions; columns become regions 1..r in order.  Every member is
    ``Ring(counts, 0)`` of its column sizes, so a column of size 0 at
    the start of the range grows back, and no diagram is drawn.
    """
    if isinstance(sizes, str):
        sizes = [part.strip() for part in sizes.split(",")]
    exprs = [_as_expr(s) for s in sizes]
    base_counts = []
    for i, e in enumerate(exprs):
        v = e(start)
        if v < 0:
            raise ValueError(
                f"column {i + 1} size {e.text!r} is negative at parameter {start}"
            )
        base_counts.append(v)
    return FamilySpec(
        base=Ring(base_counts, 0),
        sizes={i + 1: e for i, e in enumerate(exprs)},
        color=_as_expr(color),
        start=start,
        stop=stop,
    )


# --- reports ------------------------------------------------------------

@dataclass(frozen=True)
class StepCheck:
    """One verified comparison between consecutive family members."""

    parameter: int
    required: int
    verified: int
    passed: bool
    left: tuple[int, ...]
    right: tuple[int, ...]


@dataclass(frozen=True)
class TailReport:
    family: str
    units: str
    rate: str
    parameters: tuple[int, ...]
    anchors: tuple[str, ...]
    steps: tuple[StepCheck, ...]
    tail: CoeffList
    passed: bool

    def to_json(self) -> str:
        payload = {
            "family": self.family,
            "units": self.units,
            "rate": self.rate,
            "passed": self.passed,
            "parameters": list(self.parameters),
            "anchors": list(self.anchors),
            "steps": [
                {
                    "parameter": s.parameter,
                    "required": s.required,
                    "verified": s.verified,
                    "passed": s.passed,
                    "left": list(s.left),
                    "right": list(s.right),
                }
                for s in self.steps
            ],
            "tail": {
                "units": self.tail.units,
                "anchor": str(self.tail.anchor),
                "coeffs": list(self.tail.coeffs),
                "normalized": self.tail.normalized,
            },
        }
        # compact: an indent would turn off the C encoder
        return json.dumps(payload, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [
            f"family: {self.family}",
            f"rate: {self.rate} [{UNIT_NAMES[self.units]}]",
        ]
        for s in self.steps:
            mark = "PASS" if s.passed else "FAIL"
            lines.append(
                f"step {s.parameter}: required {s.required}  "
                f"verified {s.verified}  {mark}"
            )
            if not s.passed:
                lines.append("  left  " + " ".join(str(c) for c in s.left))
                lines.append("  right " + " ".join(str(c) for c in s.right))
        lines.append("tail: " + " ".join(str(c) for c in self.tail.coeffs))
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _windows(params: Iterable[int], counts: Sequence[int],
             member: Callable[[int], Ring | LinkDiagram],
             color: Callable[[int], int], **family) -> list[CoeffList]:
    """``invariants.family_windows`` over ``member(k)`` at ``color(k)``
    for every parameter k, failures named by parameter.

    A ``MemberError`` or ``BudgetError`` passes through unchanged; any
    other ``ValueError`` or ``ArithmeticError`` becomes a ``MemberError``
    for the member's parameter.
    """
    params = list(params)
    windows = family_windows(map(member, params), map(color, params),
                             counts, **family)
    out = []
    for k, _ in zip(params, counts):
        try:
            out.append(next(windows))
        except (MemberError, BudgetError):
            raise
        except (ValueError, ArithmeticError) as exc:
            raise MemberError(
                f"family member at parameter {k} failed: {exc}", k
            ) from exc
    return out


def reduced_windows(spec: FamilySpec, counts: Sequence[int], *,
                    max_networks: int = 100_000) -> list[CoeffList]:
    """The lowest ``counts[i]`` reduced coefficients of the i-th member.

    Members are evaluated in parameter order as one family (see
    ``invariants.family_windows``), so each color's channel weights are
    built once and each member rebuilds only the columns that changed.
    A budget refusal raises ``BudgetError`` itself; any other
    ``ValueError`` or ``ArithmeticError`` becomes a ``MemberError`` for
    the member.
    """
    return _windows(spec.parameters(), counts, spec.member,
                    spec.member_color, reduced=True,
                    max_networks=max_networks)


def _window_counts(required: Sequence[int], tail_len: int, depth: int,
                   members: int) -> list[int]:
    counts = []
    for j in range(members):
        need = 1
        if j >= 1:
            need = max(need, required[j - 1])
        if j < len(required):
            need = max(need, required[j])
        if j == members - 1:
            need = max(need, tail_len)
        counts.append(need + depth)
    return counts


def _assemble_report(family: str, rate_text: str, params: Sequence[int],
                     step_params: Sequence[int], required: Sequence[int],
                     windows: Sequence[CoeffList], tail_len: int) -> TailReport:
    # one family's windows share their units; each is normalized once
    normed = [normalize(w).coeffs for w in windows]
    steps = []
    for i, req in enumerate(required):
        lhs, rhs = normed[i], normed[i + 1]
        cap = min(len(lhs), len(rhs))
        agree = _common_prefix(lhs, rhs)
        ok = req <= cap and agree >= req
        show = min(max(req, agree + 1), cap)
        steps.append(
            StepCheck(
                parameter=step_params[i],
                required=req,
                verified=agree,
                passed=ok,
                left=lhs[:show],
                right=rhs[:show],
            )
        )
    last = normed[-1]
    cut = max(0, min(tail_len, len(last)))
    tail = CoeffList(last[:cut], windows[-1].units, 0, True)
    return TailReport(
        family=family,
        units=windows[-1].units,
        rate=rate_text,
        parameters=tuple(params),
        anchors=tuple(str(w.anchor) for w in windows),
        steps=tuple(steps),
        tail=tail,
        passed=all(s.passed for s in steps),
    )


# --- rate checkers ------------------------------------------------------

def family_tail(spec: FamilySpec, rate, *, depth: int = 2) -> TailReport:
    """Verify stepwise agreement of reduced windows and estimate the tail.

    The rate is evaluated at the earlier member of each step.  The tail
    estimate is the last member's normalized window cut to the rate's value
    there; per-step results carry the measured agreement depth, so a failed
    claim still yields a full report.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    rate_fn, rate_text = _coerce_rate(rate)
    params = list(spec.parameters())
    required = [max(0, rate_fn(k)) for k in params[:-1]]
    tail_len = max(0, rate_fn(params[-1]))
    counts = _window_counts(required, tail_len, depth, len(params))
    windows = reduced_windows(spec, counts)
    return _assemble_report(
        spec.describe(), rate_text, params, params[:-1], required, windows,
        tail_len,
    )


def _varied_min(spec: FamilySpec, earlier: int, later: int) -> int | None:
    """Smallest later-member size among regions that changed over the step."""
    sizes = [ex(later) for _, ex in spec.sizes if ex(later) != ex(earlier)]
    return min(sizes) if sizes else None


def _step_rate_report(spec: FamilySpec, rate, depth: int, default_text: str,
                      cable: Callable[[int], int]) -> TailReport:
    """Stepwise A-unit agreement of the members' cabled bracket windows.

    ``cable(k)`` is the cable color of member k.  A custom rate is
    evaluated at the later member of each step; the default claim is
    4n(m-1)+4, with n the later member's cable color and m the smallest
    region size that changed over the step (4m at n = 1).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    params = list(spec.parameters())
    rate_fn, rate_text = (None, default_text) if rate is None else _coerce_rate(rate)
    required = []
    for earlier, later in zip(params, params[1:]):
        if rate_fn is not None:
            required.append(max(0, rate_fn(later)))
            continue
        n = cable(later)
        m = _varied_min(spec, earlier, later)
        required.append(max(0, 4 * n * (m - 1) + 4) if m is not None else 0)
    tail_len = required[-1] if required else 1
    counts = _window_counts(required, tail_len, depth, len(params))
    windows = _windows(params, counts, spec.member, cable)
    return _assemble_report(
        spec.describe(), rate_text, params, params[1:], required, windows,
        tail_len,
    )


def check_bracket_rate(spec: FamilySpec, *, rate=None,
                       depth: int = 2) -> TailReport:
    """Stepwise bracket agreement in A-units for a twist family.

    The default claim is four times the smallest changed region size at the
    later member of each step; a custom rate is evaluated at the later
    member as well.
    """
    return _step_rate_report(spec, rate, depth, "4*min(k_i)", lambda k: 1)


def check_colored_rate(spec: FamilySpec, *, rate=None,
                       depth: int = 2) -> TailReport:
    """Stepwise colored agreement in A-units for a twist family.

    The members are raw cabled brackets, and the default claim is
    4n(k-1)+4 with n the cable color and k the smallest changed region
    size at the later member; a custom rate is evaluated at the later
    member as well.  Reduced windows in q-units are ``family_tail``'s.
    """

    def cable(k: int) -> int:
        n = spec.member_color(k) - 1
        if n < 1:
            raise MemberError(
                f"colored checks need color at least 2, got {n + 1} "
                f"at parameter {k}",
                k,
            )
        return n

    return _step_rate_report(spec, rate, depth, "4*n*(min(k_i)-1)+4", cable)


def check_color_stability(diagram: LinkDiagram, colors: Sequence[int], *,
                          twist_shifts: Mapping[int, int] | None = None,
                          diagonal: bool = False, depth: int = 2) -> TailReport:
    """Agreement of cabled bracket windows across consecutive colors.

    Plain mode compares the same diagram at colors n-1 and n to 4n A-terms.
    The diagram is taken as its ring layout once; one without a ring
    layout raises ``LayoutError``, since no color above 1 reaches it.  With
    ``twist_shifts`` the lower-color member absorbs the per-region shifts
    (accumulating down the chain), added to the counts of the ring's
    columns.  Every shifted region must keep at least one crossing at
    every color, so a region of 0 crossings is never shifted.
    ``diagonal`` reverses the direction so sizes grow with the color, one
    shift step per color, defaulting to +1 per region.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    colors = tuple(operator.index(c) for c in colors)
    if not colors:
        raise ValueError("need at least one color")
    if colors[0] < 1:
        raise ValueError("colors start at 1")
    if any(b != a + 1 for a, b in zip(colors, colors[1:])):
        raise ValueError("colors must be consecutive ascending")
    labels = [reg.rid for reg in diagram.twist_regions]
    shifts = dict(twist_shifts) if twist_shifts else {}
    if diagonal and not shifts:
        shifts = {rid: 1 for rid in labels}
    unknown = sorted(set(shifts) - set(labels))
    if unknown:
        raise ValueError(f"unknown region id {unknown[0]} in twist shifts")
    mults = {c: i if diagonal else len(colors) - 1 - i
             for i, c in enumerate(colors)}
    # Every target is checked before any member is built.  One color
    # shifts nothing, so a shifted region has a crossing, hence a column.
    for c, mult in mults.items():
        for rid, b in shifts.items():
            target = diagram.region(rid).count + b * mult
            if target < 1:
                raise ValueError(
                    f"twist shifts must leave at least one crossing in "
                    f"region {rid} (got {target} at color {c})"
                )
    try:
        ring, columns = _ring_layout(diagram)
    except LayoutError as err:
        raise LayoutError(
            f"color stability needs a ring layout: {err}") from None
    members = {}
    for c, mult in mults.items():
        counts = list(ring.counts)
        for rid, b in shifts.items():
            counts[columns.index(rid)] += b * mult
        members[c] = replace(ring, counts=tuple(counts))

    required = [4 * c for c in colors[1:]]
    tail_len = required[-1] if required else 1
    counts = _window_counts(required, tail_len, depth, len(colors))
    windows = _windows(colors, counts, members.__getitem__,
                       lambda c: c)
    parts = [diagram.name or "diagram", f"colors {colors[0]}..{colors[-1]}"]
    if shifts:
        body = ", ".join(f"{rid}: {shifts[rid]}" for rid in sorted(shifts))
        parts.append(("diagonal shifts {" if diagonal else "shifts {") + body + "}")
    return _assemble_report(
        "; ".join(parts), "4*n", colors, colors[1:], required, windows,
        tail_len,
    )
