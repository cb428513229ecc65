"""Command line entry points.

``skein`` bundles the exact calculators into five commands (``bracket``,
``table``, ``tail``, ``verify``, ``graph``).  All arithmetic is exact, so the
csv, json, and text renderings of one computation carry identical
numbers.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
import re
import time
from dataclasses import replace

import click

from . import __version__
from .algebra import (
    LaurentPoly,
    RationalFn,
    admissible,
    delta,
    fusion_coeff,
    min_degree,
    theta,
)
from .diagram import (
    DiagramError,
    LinkDiagram,
    PDSyntaxError,
    State,
    apply_state,
    is_minus_adequate,
    minus_graph,
    parse_pd,
    pretzel,
    reduced_minus_graph,
)
from .invariants import (
    AdequacyError,
    BudgetError,
    LayoutError,
    bracket_state_sum,
    bracket_window,
    channel_probe,
    colored_bracket_fused,
    colored_state_sum,
    predicted_min_degree,
    reduced_window,
    unreduced_colored_jones,
)
from .planar import (
    TLMorphism,
    boxed,
    cabled_crossing,
    cabled_kink,
    channel_element,
    closure,
    compose,
    jones_wenzl,
    tensor,
    theta_network,
    turnback,
)
from .series import Ring, shared_memos
from .stability import (
    ExpressionError,
    FamilyExpr,
    MemberError,
    WindowError,
    check_bracket_rate,
    check_color_stability,
    check_colored_rate,
    family_tail,
    n_equivalent,
    normalize,
    pretzel_family,
    reduced_windows,
)

DEFAULT_MAX_STATES = 1 << 20
DEFAULT_MAX_NETWORKS = 100_000

_RANGE_RE = re.compile(r"(-?[0-9]+)\.\.(-?[0-9]+)\Z")


# -- shared option plumbing ----------------------------------------------------


def _expr(text: str, flag: str) -> FamilyExpr:
    try:
        return FamilyExpr.parse(text)
    except ExpressionError as exc:
        raise click.BadParameter(str(exc), param_hint=f"'{flag}'")


def _parse_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text.strip())
    if m is None:
        raise click.BadParameter(
            f"expected START..STOP, got {text!r}", param_hint="'--range'"
        )
    start, stop = int(m.group(1)), int(m.group(2))
    if stop < start:
        raise click.BadParameter(
            f"empty parameter range {start}..{stop}", param_hint="'--range'"
        )
    return start, stop


def _parse_counts(text: str, flag: str) -> list[int]:
    counts = []
    for i, part in enumerate(text.split(",")):
        part = part.strip()
        if re.fullmatch(r"-?[0-9]+", part) is None:
            raise click.BadParameter(
                f"column {i + 1}: expected an integer, got {part!r}",
                param_hint=f"'{flag}'",
            )
        counts.append(int(part))
    return counts


def _diagram_options(fn):
    fn = click.option(
        "--diagram-json",
        "json_path",
        type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="File holding a serialized diagram (the to_json format).",
    )(fn)
    fn = click.option(
        "--pd",
        "pd_path",
        type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="File holding PD notation, e.g. PD[X[1,4,2,3], ...].",
    )(fn)
    fn = click.option(
        "--pretzel",
        "pretzel_arg",
        default=None,
        metavar="C1,C2,...",
        help="Pretzel twist sizes, comma separated.",
    )(fn)
    return fn


def _family_options(fn):
    fn = click.option("--range", "range_arg", required=True, metavar="A..B",
                      help="Inclusive parameter range.")(fn)
    fn = click.option(
        "--color",
        "color_arg",
        default="2",
        show_default=True,
        metavar="EXPR",
        help="Reduced polynomial index, as an expression in the same parameter.",
    )(fn)
    fn = click.option(
        "--pretzel-family",
        "family_arg",
        required=True,
        metavar="E1,E2,...",
        help='Twist sizes as expressions in one parameter, e.g. "8,6,k".',
    )(fn)
    return fn


def _load_diagram(pretzel_arg, pd_path, json_path) -> LinkDiagram:
    sources = [
        flag
        for flag, value in (
            ("--pretzel", pretzel_arg),
            ("--pd", pd_path),
            ("--diagram-json", json_path),
        )
        if value is not None
    ]
    if len(sources) != 1:
        given = f" (got {', '.join(sources)})" if sources else ""
        raise click.UsageError(
            "give exactly one of --pretzel, --pd, or --diagram-json" + given
        )
    if pretzel_arg is not None:
        counts = _parse_counts(pretzel_arg, "--pretzel")
        try:
            return pretzel(counts)
        except (DiagramError, ValueError) as exc:
            raise click.BadParameter(str(exc), param_hint="'--pretzel'")
    path = pd_path if pd_path is not None else json_path
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        if pd_path is not None:
            return parse_pd(text)
        return LinkDiagram.from_json(text)
    except PDSyntaxError as exc:
        # the message already carries the text position
        raise click.ClickException(f"{path}: {exc}")
    except (DiagramError, ValueError, KeyError, TypeError) as exc:
        raise click.ClickException(f"{path}: {exc}")


def _max_crossings(max_states: int) -> int:
    # the classical sweep can touch one state per smoothing choice,
    # so a state budget of 2^c covers c crossings
    return max(0, int(max_states).bit_length() - 1)


def _family(family_arg: str, color_arg: str, start: int, stop: int):
    sizes = []
    for i, part in enumerate(family_arg.split(",")):
        try:
            sizes.append(FamilyExpr.parse(part))
        except ExpressionError as exc:
            raise click.BadParameter(
                f"column {i + 1}: {exc}", param_hint="'--pretzel-family'"
            )
    color = _expr(color_arg, "--color")
    try:
        return pretzel_family(sizes, color, start, stop)
    except MemberError as exc:
        raise click.BadParameter(str(exc), param_hint="'--color'")
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--pretzel-family'")


def _window_rows(spec, window, max_networks):
    """Normalized reduced-polynomial windows, one row per family member."""
    params = list(spec.parameters())
    counts = [window(k) for k in params]
    for k, count in zip(params, counts):
        if count < 0:
            raise WindowError(
                f"window {str(window)!r} evaluates to {count} at parameter {k}"
            )
    windows = reduced_windows(spec, counts, max_networks=max_networks)
    return [(k, list(normalize(w).coeffs) if w.coeffs else [])
            for k, w in zip(params, windows)]


# -- command group -------------------------------------------------------------


@click.group()
@click.version_option(__version__, prog_name="skein")
def main() -> None:
    """Exact bracket and colored polynomial tools for twist-region families."""


@main.command()
@_diagram_options
@click.option(
    "--max-states",
    default=DEFAULT_MAX_STATES,
    show_default=True,
    type=click.IntRange(min=1),
    help="State budget for the classical sweep; a diagram whose smoothing "
    "count 2^crossings exceeds it is refused.",
)
def bracket(pretzel_arg, pd_path, json_path, max_states):
    """Kauffman bracket of one diagram, with its minimum degree.

    When the diagram supports the sharpness formula, the predicted
    minimum degree is printed next to the computed one.
    """
    diagram = _load_diagram(pretzel_arg, pd_path, json_path)
    try:
        value = bracket_state_sum(
            diagram, max_crossings=_max_crossings(max_states)
        ).value
    except BudgetError as exc:
        raise click.ClickException(f"--max-states: {exc}")
    click.echo(f"bracket: {value}")
    if not value:
        click.echo("min degree: undefined (zero polynomial)")
        return
    click.echo(f"min degree: {value.min_degree()}")
    try:
        predicted = predicted_min_degree(diagram, 1)
    except (AdequacyError, DiagramError, ValueError) as exc:
        click.echo(f"predicted min degree: not applicable ({exc})")
    else:
        tag = "agrees" if predicted == value.min_degree() else "DISAGREES"
        click.echo(f"predicted min degree: {predicted} ({tag})")


@main.command()
@_family_options
@click.option(
    "--window",
    "window_arg",
    required=True,
    metavar="EXPR",
    help="How many low coefficients to print per member.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(("text", "csv", "json")),
    default="text",
    show_default=True,
)
@click.option(
    "--max-networks",
    default=DEFAULT_MAX_NETWORKS,
    show_default=True,
    type=click.IntRange(min=1),
    help="Fusion-term budget per colored evaluation.",
)
def table(family_arg, color_arg, range_arg, window_arg, fmt, max_networks):
    """Normalized low-coefficient windows across one pretzel family.

    Each row lists the first coefficients of the reduced polynomial of
    one member, starting from its lowest degree, sign-normalized so the
    row begins with a positive number.
    """
    start, stop = _parse_range(range_arg)
    spec = _family(family_arg, color_arg, start, stop)
    window = _expr(window_arg, "--window")
    try:
        rows = _window_rows(spec, window, max_networks)
    except BudgetError as exc:
        raise click.ClickException(f"--max-networks: {exc}")
    except (MemberError, WindowError) as exc:
        raise click.ClickException(str(exc))
    if fmt == "json":
        doc = {
            "family": spec.describe(),
            "rows": [{"parameter": k, "window": cs} for k, cs in rows],
        }
        click.echo(json.dumps(doc, separators=(",", ":")))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for k, cs in rows:
            writer.writerow([k, *cs])
        click.echo(buf.getvalue(), nl=False)
    else:
        click.echo(f"# {spec.describe()}")
        for k, cs in rows:
            click.echo(f"{spec.var}={k}: " + " ".join(str(c) for c in cs))


@main.command()
@_family_options
@click.option(
    "--rate",
    "rate_arg",
    required=True,
    metavar="EXPR",
    help="Coefficients that must agree between consecutive members, "
    "evaluated at the earlier parameter.",
)
@click.option(
    "--depth",
    default=2,
    show_default=True,
    type=click.IntRange(min=0),
    help="Extra coefficients verified past each required agreement.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(("text", "json")),
    default="text",
    show_default=True,
)
def tail(family_arg, color_arg, range_arg, rate_arg, depth, fmt):
    """Check a stability rate across a family and report the shared tail.

    Every consecutive pair of members is compared through the rate; the
    report shows how far each pair actually agrees, witness coefficients
    on failure, and the stable head of the last member.
    """
    start, stop = _parse_range(range_arg)
    spec = _family(family_arg, color_arg, start, stop)
    rate = _expr(rate_arg, "--rate")
    try:
        report = family_tail(spec, rate, depth=depth)
    except (MemberError, BudgetError, WindowError) as exc:
        raise click.ClickException(str(exc))
    click.echo(report.to_json() if fmt == "json" else report.to_text())


@main.command()
@_diagram_options
@click.option(
    "--emit",
    type=click.Choice(("dot",)),
    default="dot",
    show_default=True,
    help="Output format.",
)
@click.option(
    "--reduced",
    is_flag=True,
    help="Merge parallel edges of the all-minus state graph.",
)
def graph(pretzel_arg, pd_path, json_path, emit, reduced):
    """All-minus state graph of a diagram, as Graphviz DOT.

    Vertices are the circles of the all-minus smoothing (isolated
    vertices for crossing-free loops); one edge per crossing joins the
    circles its smoothing touches.
    """
    del emit  # only one format today; the flag documents the contract
    diagram = _load_diagram(pretzel_arg, pd_path, json_path)
    g = reduced_minus_graph(diagram) if reduced else minus_graph(diagram)
    click.echo(g.to_dot("reduced_minus" if reduced else "minus"))


# -- verification suites ---------------------------------------------------------


def _run_check(name, fn) -> dict:
    started = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return {
        "name": name,
        "passed": bool(ok),
        "detail": detail,
        "elapsed_seconds": round(time.perf_counter() - started, 3),
    }


_T1_ROW = (1, -1, 3, -4, 6, -8, 10, -11, 13, -13, 14)
_T2_ROW = (1, -1, 3, -3, 5, -6, 7, -8, 9, -10, 11)
_T3_ROW = (1, -1, -1, 0, 4, 0, -4, -5, 7, 6, -1,
           -13, 1, 7, 9, -8, -3, -5, 5, -1, 13, -4)
_T4_ROW = (1, -1, -1, 0, 0, 1, 0, 1)


def _euler(count: int) -> tuple[int, ...]:
    """The first ``count`` coefficients of (q;q)_inf by the pentagonal
    number theorem: sum_m (-1)^m q^(m(3m-1)/2) over all integers m."""
    c = [0] * count
    m = 0
    while m * (3 * m - 1) // 2 < count:
        for e in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            if e < count:
                c[e] = (-1) ** m
        m += 1
    return tuple(c)


def _color_tail(r: int, count: int) -> list[int]:
    """The first ``count`` coefficients of the normalized tail of a ring of
    r >= 2 columns with every count >= 1.  For r = 2m+1 it is Ramanujan's
    theta function f(-q^(2m), -q) = sum_j (-1)^j q^(m j(j+1) + j(j-1)/2)
    over all integers j; for r = 2m it is the sum over k >= 0 of
    q^(mk^2 + (m-1)k) (1 - q^(2k+1))."""
    m, odd = divmod(r, 2)
    c = [0] * count
    if odd:
        for step in (1, -1):
            j = 0 if step > 0 else -1
            while (e := m * j * (j + 1) + j * (j - 1) // 2) < count:
                c[e] += -1 if j % 2 else 1
                j += step
    else:
        k = 0
        while (e := m * k * k + (m - 1) * k) < count:
            c[e] += 1
            if e + 2 * k + 1 < count:
                c[e + 2 * k + 1] -= 1
            k += 1
    return c


_TABLE_JOBS = (
    ("columns 8,6,k at index 2, windows k+1", "8,6,k", "2", 1, 10, "k+1", _T1_ROW),
    ("columns k,k,2 at index 2, windows k+1", "k,k,2", "2", 1, 10, "k+1", _T2_ROW),
    ("columns k+2,k+4,k+1 at index 4, windows 3k+1",
     "k+2,k+4,k+1", "4", 1, 7, "3*k+1", _T3_ROW),
    ("columns 2,5,k at index k+1, windows k+1", "2,5,k", "k+1", 1, 5, "k+1", _T4_ROW),
    # row k is the first k+1 coefficients of Euler's product
    ("columns 2,5,k at index k+1, windows k+1, against Euler's product",
     "2,5,k", "k+1", 8, 18, "k+1", lambda k: _euler(k + 1)),
)


def _table_job(label, family, color, start, stop, window, expected):
    """A check that each member's window starts ``expected``, or at
    parameter k ``expected(k)`` when that is a function."""
    def run():
        spec = pretzel_family(family, color, start, stop)
        rows = _window_rows(spec, FamilyExpr.parse(window), DEFAULT_MAX_NETWORKS)
        for k, cs in rows:
            row = expected(k) if callable(expected) else expected
            want = list(row[: len(cs)])
            if cs != want:
                return False, f"row {k}: got {cs}, want {want}"
        return True, f"{len(rows)} rows match"

    return label, run


def _suite_paper_tables():
    def color_tails():
        # the window of length n+1 at index n+1 depends on r alone
        # (Armond-Dasbach: the ring's reduced graph is the r-cycle)
        rings = 0
        for r in range(2, 8):
            rng = random.Random(r)
            for n in (rng.randint(1, 199), rng.randint(1, 199), 200):
                counts = [rng.randint(1, 7) for _ in range(r)]
                window = reduced_window(Ring(counts, 0), n + 1, n + 1)
                got, want = list(normalize(window).coeffs), _color_tail(r, n + 1)
                if got != want:
                    i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
                    return False, (f"ring {counts} at color {n}: coefficient {i} "
                                   f"is {got[i]}, the closed form's {want[i]}")
                rings += 1
        return True, f"{rings} rings of 2..7 columns, colors up to 200"

    return [_table_job(*args) for args in _TABLE_JOBS] + [
        ("ring tails at colors up to 200 match their closed forms", color_tails)]


def _thetas(colors, span):
    """A check of theta networks against the closed form, on every
    admissible triple whose largest color is in ``colors``."""
    def run():
        count = 0
        for a, b, c in itertools.product(range(colors[-1] + 1), repeat=3):
            if max(a, b, c) not in colors or not admissible(a, b, c):
                continue
            if theta_network(a, b, c) != theta(a, b, c):
                return False, f"failed at {(a, b, c)}"
            count += 1
        return True, f"{count} admissible triples with {span}"

    return run


def _suite_tl_identities():
    def idempotency():
        for n in range(1, 7):
            f = jones_wenzl(n)
            if compose(f, f) != f:
                return False, f"failed at n={n}"
        return True, "n = 1..6"

    def hooks():
        for n in range(2, 7):
            f = jones_wenzl(n)
            for i in range(n - 1):
                cap = boxed(TLMorphism.cap(2, 0), i, n - i - 2)
                cup = boxed(TLMorphism.cup(0, 0), i, n - i - 2)
                if not compose(f, cap).is_zero() or not compose(cup, f).is_zero():
                    return False, f"failed at n={n}, strand {i}"
        return True, "n = 2..6, every hook position"

    def absorption():
        for m, k in ((1, 1), (1, 2), (2, 2), (2, 3), (1, 4), (3, 3)):
            big = jones_wenzl(m + k)
            small = tensor(jones_wenzl(m), jones_wenzl(k))
            if compose(small, big) != big or compose(big, small) != big:
                return False, f"failed at split ({m},{k})"
        return True, "splits up to 3+3"

    def closures():
        for n in range(1, 7):
            if closure(jones_wenzl(n)).to_poly() != delta(n):
                return False, f"failed at n={n}"
        return True, "n = 1..6"

    def curls():
        for n in range(1, 5):
            f = jones_wenzl(n)
            m = n * n + 2 * n
            sgn = -1 if n % 2 else 1
            for sign, e in ((-1, -m), (1, m)):
                # the bare kink first, then the one projector
                curl = compose(cabled_kink(n, sign), f)
                if curl != f.scaled(LaurentPoly.monomial(e, sgn)):
                    return False, f"failed at n={n}, sign {sign:+d}"
        return True, "factor (-1)^n A^(+-(n^2+2n)) for n = 1..4"

    def fusion():
        for n in (1, 2):
            ff = tensor(jones_wenzl(n), jones_wenzl(n))
            acc = TLMorphism.zero(2 * n, 2 * n)
            for p in range(n + 1):
                w = RationalFn.from_poly(delta(2 * p)) / theta(n, n, 2 * p)
                acc = acc + channel_element(n, p).scaled(w)
            if acc != ff:
                return False, f"failed at n={n}"
        return True, "n = 1..2"

    def crossing_expansion():
        for n in (1, 2):
            ff = tensor(jones_wenzl(n), jones_wenzl(n))
            x = compose(compose(ff, cabled_crossing(n, -1)), ff)
            acc = TLMorphism.zero(2 * n, 2 * n)
            for i in range(n + 1):
                smoothing = compose(compose(ff, turnback(n, i)), ff)
                acc = acc + smoothing.scaled(fusion_coeff(n, i))
            if x != acc:
                return False, f"failed at n={n}"
        return True, "n = 1..2"

    return [
        ("projector idempotency", idempotency),
        ("hook annihilation", hooks),
        ("projector absorption", absorption),
        ("projector closure is the loop value", closures),
        ("cabled curl coefficient", curls),
        ("theta networks match the closed form",
         _thetas(range(1, 5), "colors <= 4")),
        ("fusion completeness", fusion),
        ("cabled crossing expansion", crossing_expansion),
    ]


_ADEQUATE_DIAGRAMS = (
    (1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 1), (2, 3, 2),
    (3, 3, 3), (4, 3, 2), (5, 4, 3), (2, 2, 2, 2), (1, 2, 3, 4),
)

_COLORED_DIAGRAMS = (
    (1, 1, 1), (2, 2, 2), (2, 3, 2), (3, 3, 3), (1, 2, 3), (2, 3, 4), (3, 3, 2),
)


def _suite_min_degrees():
    def classical():
        for counts in _ADEQUATE_DIAGRAMS:
            d = pretzel(counts)
            if not is_minus_adequate(d):
                return False, f"{list(counts)} is not minus-adequate"
            got = min_degree(bracket_state_sum(d).value)
            want = predicted_min_degree(d, 1)
            if got != want:
                return False, f"{list(counts)}: got {got}, predicted {want}"
        return True, f"{len(_ADEQUATE_DIAGRAMS)} diagrams, all sharp"

    def colored():
        pairs = 0
        for counts in _COLORED_DIAGRAMS:
            d = pretzel(counts)
            for n in (2, 3):
                got = min_degree(unreduced_colored_jones(d, n).value)
                want = predicted_min_degree(d, n)
                if got != want:
                    return False, f"{list(counts)} at n={n}: got {got}, want {want}"
                pairs += 1
        return True, f"{pairs} diagram/color pairs, all sharp"

    def probes():
        for counts in ((1, 1, 1), (2, 2, 2), (2, 3, 2), (3, 3, 3)):
            d = pretzel(counts)
            c = d.crossing_count
            s = apply_state(d, State.all_minus(d))
            for n in (1, 2):
                for p in range(n):
                    got = min_degree(channel_probe(d, n, p))
                    want = -n * n * (c - counts[0]) - 2 * (s * n - (n - p))
                    if got != want:
                        return False, f"{list(counts)} n={n} p={p}: got {got}"
        return True, "4 diagrams, n <= 2, every channel"

    return [
        ("classical minimum degree is sharp on minus-adequate diagrams",
         classical),
        ("colored minimum degree is sharp on alternating pretzels", colored),
        ("channel probe reaches the predicted degree", probes),
    ]


def _suite_rate_theorems():
    def steps_detail(report):
        return "; ".join(
            f"step {s.parameter}: verified {s.verified} >= required {s.required}"
            for s in report.steps
        )

    def one_column():
        report = check_bracket_rate(pretzel_family("8,6,k", 2, 2, 5))
        return report.passed, steps_detail(report)

    def two_columns():
        report = check_bracket_rate(pretzel_family("k,k,2", 2, 2, 5))
        return report.passed, steps_detail(report)

    def colored_rate():
        report = check_colored_rate(pretzel_family("2,2,k", 3, 2, 4))
        return report.passed, steps_detail(report)

    def color_ladder():
        report = check_color_stability(pretzel([2, 3, 2]), (1, 2, 3))
        return report.passed, steps_detail(report)

    def cross_twist():
        report = check_color_stability(
            pretzel([2, 3, 2]), (1, 2), twist_shifts={1: 2, 3: 3}
        )
        return report.passed, steps_detail(report)

    def shared_graph_window():
        a = normalize(bracket_window(pretzel([2, 2, 2]), 2, 8))
        b = normalize(bracket_window(pretzel([4, 5, 3]), 2, 8))
        if not n_equivalent(a, b, 8):
            return False, f"windows differ: {list(a.coeffs)} vs {list(b.coeffs)}"
        return True, "first 8 coefficients agree"

    return [
        ("bracket rate 4k with one varying column", one_column),
        ("bracket rate 4k with two varying columns", two_columns),
        ("colored rate 4n(k-1)+4", colored_rate),
        ("color-to-color rate 4n", color_ladder),
        ("cross-twist color rate", cross_twist),
        ("matching reduced state graphs share the window", shared_graph_window),
    ]


def _suite_oracle_equivalence():
    def clasped():
        triples = list(itertools.product((1, 2, 3), repeat=3))

        def one(counts):
            d = pretzel(counts)
            for n in (1, 2):
                if colored_bracket_fused(d, n).value != colored_state_sum(d, n).value:
                    return f"{list(counts)} at n={n}"
            return None

        failures = [f for f in map(one, triples) if f]
        if failures:
            return False, "disagreements: " + ", ".join(failures)
        return True, f"{len(triples)} pretzels, n <= 2"

    def classical():
        shapes = (
            [8, 6, 6], [7, 7, 6], [10, 5, 5], [6, 7, 7],
            [5, 5, 5, 5], [8, 6, 3], [4, 4, 4, 4, 4],
        )
        for counts in shapes:
            d = pretzel(counts)
            if colored_bracket_fused(d, 1).value != bracket_state_sum(d).value:
                return False, f"disagreement at {counts}"
        return True, f"{len(shapes)} pretzels up to 20 crossings"

    return [
        ("fused channels match the clasped state sum", clasped),
        ("fused channels match the classical sweep", classical),
    ]


def _side_series(n: int, count: int) -> list[int]:
    """The first ``count`` coefficients of Delta_2n / Delta_n, which is
    (1 - x^(2n+1)) / (1 - x^(n+1)) as a series in x."""
    c = [0] * count
    for i in range(0, count, n + 1):
        c[i] += 1
        if i + 2 * n + 1 < count:
            c[i + 2 * n + 1] -= 1
    return c


_HIGH_COLOR_JOBS = (
    # tier-1 checks the 2,5,k rows against Euler's product up to index 30
    # and at 191..193; each member sums at its own precision
    ("columns 2,5,k at index k+1 up to 201, against Euler's product",
     "2,5,k", "k+1", 8, 200, "k+1", lambda k: _euler(k + 1)),
    ("columns 2,5,k at index 191..201, against Euler's product",
     "2,5,k", "k+1", 190, 200, "k+1", lambda k: _euler(k + 1)),
    ("columns 2,5,k at index 401..411, against Euler's product",
     "2,5,k", "k+1", 400, 410, "k+1", lambda k: _euler(k + 1)),
    # a one-column ring is an unknot with k curls, folded in closed form:
    # its reduced polynomial is a monomial at every color
    ("one column at color 201 is a monomial", "k", "201", 3, 5, "5", (1, 0, 0, 0, 0)),
    # the ring (k, 0) is a column of k crossings closed around its side; at
    # cable color n = k its reduced polynomial is sum_p Delta_2p mu_p^k / Delta_n
    ("a column closed around its side at index k+1 is Delta_2n / Delta_n",
     "k,0", "k+1", 190, 200, "2*k+4", lambda k: _side_series(k, 2 * k + 4)),
)

_TREFOIL = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
_TREFOIL_SUM = ("PD[X[1,4,2,5],X[3,6,4,7],X[5,2,6,3],"
                "X[7,10,8,11],X[9,12,10,1],X[11,8,12,9]]")
_SIX_CROSSING = ("PD[X[4,2,5,1],X[8,4,9,3],X[12,9,1,10],"
                 "X[10,5,11,6],X[6,11,7,12],X[2,8,3,7]]")


def _suite_high_color():
    def zero_column_places():
        # a zero column is folded into a loop wherever it sits in the
        # ring, so its three places give the same rows
        families = ("0,5,k", "5,0,k", "5,k,0")
        rows = [_window_rows(pretzel_family(f, "k+1", 295, 300),
                             FamilyExpr.parse("10"), DEFAULT_MAX_NETWORKS)
                for f in families]
        for family, got in zip(families[1:], rows[1:]):
            if got != rows[0]:
                return False, f"{family} gives {got}, 0,5,k gives {rows[0]}"
        return True, "0,5,k, 5,0,k and 5,k,0 agree at k = 295..300"

    def pd_zero_columns():
        # a PD code keeps no zero region; the layout reads one from each
        # column side that closes on itself
        def pd(crossings):
            return "PD[" + ",".join("X[%d,%d,%d,%d]" % tuple(x) for x in crossings) + "]"

        # the bracket is multiplicative under connected sum, over one loop
        for n in (2, 3):
            total = unreduced_colored_jones(parse_pd(_TREFOIL_SUM), n).value
            part = unreduced_colored_jones(parse_pd(_TREFOIL), n).value
            if total * delta(n) != part * part:
                return False, f"color {n}: the trefoil sum is not the trefoil squared"
        counts = [0, 2, 0, 3]
        for i in range(len(counts)):
            d = pretzel(counts[i:] + counts[:i])
            bare = replace(parse_pd(pd(d.crossings)), free_loops=d.free_loops)
            for n in (1, 2, 3):
                got = unreduced_colored_jones(bare, n).value
                if got != unreduced_colored_jones(d, n).value:
                    return False, f"{d.name} drawn as a PD code differs at color {n}"
        # ten trefoils and a part with no ring layout, side by side
        crossings, shift = [], 0
        for text in [_TREFOIL] * 10 + [_SIX_CROSSING]:
            part = parse_pd(text)
            crossings += [[a + shift for a in x] for x in part.crossings]
            shift += max(part.arcs())
        try:
            unreduced_colored_jones(parse_pd(pd(crossings)), 2)
        except LayoutError:
            return True, ("trefoil sum at colors 2-3, rotations of 0,2,0,3, "
                          "split union refused")
        return False, "a split union with a part that is no ring laid out"

    return [_table_job(*args) for args in _HIGH_COLOR_JOBS] + [
        ("a zero column's place leaves the rows unchanged", zero_column_places),
        ("theta networks at colors 5 and 6 match the closed form",
         _thetas(range(5, 7), "a color of 5 or 6")),
        ("zero columns read from PD codes", pd_zero_columns),
    ]


_SUITES = {
    "paper-tables": _suite_paper_tables,
    "tl-identities": _suite_tl_identities,
    "min-degrees": _suite_min_degrees,
    "rate-theorems": _suite_rate_theorems,
    "oracle-equivalence": _suite_oracle_equivalence,
    "high-color": _suite_high_color,
}


@main.command()
@click.option("--suite", required=True, type=click.Choice(sorted(_SUITES)))
def verify(suite):
    """Run one verification suite and print a JSON report.

    Each check's progress line, with the check's own time, goes to
    stderr as soon as the check ends; the report (suite name, overall
    flag, each check's name, outcome, detail, and time) goes to stdout.
    The exit status is 0 exactly when every check passed.
    """
    started = time.perf_counter()
    checks = []
    # the suite's full polynomials share one weight memo per color
    with shared_memos():
        for name, fn in _SUITES[suite]():
            c = _run_check(name, fn)
            marker = "ok  " if c["passed"] else "FAIL"
            click.echo(f"{marker} {c['name']}: {c['detail']} "
                       f"[{c['elapsed_seconds']:.3f} s]", err=True)
            checks.append(c)
    elapsed = round(time.perf_counter() - started, 3)
    passed = all(c["passed"] for c in checks)
    click.echo(
        json.dumps(
            {
                "suite": suite,
                "passed": passed,
                "elapsed_seconds": elapsed,
                "checks": checks,
            },
            indent=2,
        )
    )
    if not passed:
        raise SystemExit(1)


if __name__ == "__main__":
    main(prog_name="skein")
