"""Acceptance gates, one test per published criterion.

Every test prints one PASS/FAIL line with its elapsed time and checks
the stated time budget alongside the result.
"""

import json
import time

from click.testing import CliRunner

from skeinkit.algebra import LaurentPoly, RationalFn, delta, min_degree, theta, twist_coeff
from skeinkit.cli import main as cli_main
from skeinkit.diagram import pretzel
from skeinkit.invariants import reduced_jones
from skeinkit.stability import normalize, stable_prefix, window_from_reduced

# published coefficient tables; every shorter row is a prefix of the last one
T1 = (1, -1, 3, -4, 6, -8, 10, -11, 13, -13, 14)
T2 = (1, -1, 3, -3, 5, -6, 7, -8, 9, -10, 11)
T3 = (1, -1, -1, 0, 4, 0, -4, -5, 7, 6, -1, -13, 1, 7, 9, -8, -3, -5, 5, -1, 13, -4)
T4 = (1, -1, -1, 0, 0, 1, 0, 1)


def gate(num, label, budget, ok, elapsed, detail=""):
    status = "PASS" if (ok and elapsed <= budget) else "FAIL"
    print(f"{status} criterion {num}: {label} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {label}: {detail or 'check failed'}"
    assert elapsed <= budget, (
        f"criterion {num}: {label}: took {elapsed:.1f}s, budget {budget:.0f}s"
    )


def window_row(counts, color, width):
    poly = reduced_jones(pretzel(counts), color)
    return list(normalize(window_from_reduced(poly, width)).coeffs)


def table_gate(num, label, budget, rows, expected):
    t0 = time.perf_counter()
    bad = ""
    ok = True
    for k, counts, color, width in rows:
        got = window_row(counts, color, width)
        want = list(expected[:width])
        if got != want:
            ok, bad = False, f"row {k}: got {got}, want {want}"
            break
    gate(num, label, budget, ok, time.perf_counter() - t0, bad)


def suite_gate(num, label, budget, suite, report=None):
    """Run one verify suite; with ``report``, its (name, passed, detail)
    list must also equal that list exactly."""
    t0 = time.perf_counter()
    result = CliRunner().invoke(cli_main, ["verify", "--suite", suite])
    elapsed = time.perf_counter() - t0
    ok = result.exit_code == 0
    detail = ""
    if ok:
        doc = json.loads(result.stdout)
        ok = doc["passed"] and len(doc["checks"]) > 0
        detail = "; ".join(
            f"{c['name']}: {c['detail']}" for c in doc["checks"] if not c["passed"]
        )
        got = [(c["name"], c["passed"], c["detail"]) for c in doc["checks"]]
        if ok and report is not None and got != list(report):
            ok, detail = False, f"report {got}, want {list(report)}"
    else:
        detail = f"exit code {result.exit_code}"
    gate(num, label, budget, ok, elapsed, detail)


# each check's (name, passed, detail) as the suites report them: the
# fields bench/checks.py hashes into each oracle-suites output
TL_IDENTITIES = (
    ("projector idempotency", True, "n = 1..6"),
    ("hook annihilation", True, "n = 2..6, every hook position"),
    ("projector absorption", True, "splits up to 3+3"),
    ("projector closure is the loop value", True, "n = 1..6"),
    ("cabled curl coefficient", True, "factor (-1)^n A^(+-(n^2+2n)) for n = 1..4"),
    ("theta networks match the closed form", True,
     "41 admissible triples with colors <= 4"),
    ("fusion completeness", True, "n = 1..2"),
    ("cabled crossing expansion", True, "n = 1..2"),
)
MIN_DEGREES = (
    ("classical minimum degree is sharp on minus-adequate diagrams", True,
     "10 diagrams, all sharp"),
    ("colored minimum degree is sharp on alternating pretzels", True,
     "14 diagram/color pairs, all sharp"),
    ("channel probe reaches the predicted degree", True,
     "4 diagrams, n <= 2, every channel"),
)
ORACLE_EQUIVALENCE = (
    ("fused channels match the clasped state sum", True, "27 pretzels, n <= 2"),
    ("fused channels match the classical sweep", True,
     "7 pretzels up to 20 crossings"),
)


def test_criterion_01_growing_third_column_table():
    rows = [(k, [8, 6, k], 2, k + 1) for k in range(1, 11)]
    table_gate(1, "index-2 windows of the 8,6,k family match the published rows",
               10, rows, T1)


def test_criterion_02_two_varying_columns_table():
    rows = [(k, [k, k, 2], 2, k + 1) for k in range(1, 11)]
    table_gate(2, "index-2 windows of the k,k,2 family match the published rows",
               10, rows, T2)


def test_criterion_03_higher_color_table():
    rows = [(k, [k + 2, k + 4, k + 1], 4, 3 * k + 1) for k in range(1, 8)]
    table_gate(3, "index-4 windows of the k+2,k+4,k+1 family match the published rows",
               300, rows, T3)


def test_criterion_04_color_locked_table():
    rows = [(k, [2, 5, k], k + 1, k + 1) for k in range(1, 6)]
    table_gate(4, "index-(k+1) windows of the 2,5,k family match the published rows",
               900, rows, T4)


def test_criterion_04_color_locked_table_stretch_rows():
    rows = [(k, [2, 5, k], k + 1, k + 1) for k in (6, 7)]
    table_gate(4, "stretch rows 6 and 7 of the color-locked family",
               900, rows, T4)


def test_criterion_05_first_divergence_position():
    t0 = time.perf_counter()
    a = normalize(window_from_reduced(reduced_jones(pretzel([8, 6, 2]), 2), 6))
    b = normalize(window_from_reduced(reduced_jones(pretzel([8, 6, 3]), 2), 6))
    agree = stable_prefix(a, b)
    gate(5, "windows of consecutive members share exactly three coefficients",
         5, agree == 3, time.perf_counter() - t0,
         f"stable_prefix == {agree}, want 3")


def test_criterion_06_projector_identity_suite():
    suite_gate(6, "projector and network identities hold", 120, "tl-identities",
               TL_IDENTITIES)


def test_criterion_07_minimum_degree_suite():
    suite_gate(7, "minimum-degree predictions are sharp", 300, "min-degrees",
               MIN_DEGREES)


def test_criterion_08_oracle_equivalence_suite():
    suite_gate(8, "independent bracket oracles agree", 300, "oracle-equivalence",
               ORACLE_EQUIVALENCE)


def test_criterion_09_rate_theorem_suite():
    suite_gate(9, "stability rates verify at their stated depths", 600,
               "rate-theorems")


def test_criterion_10_channel_weight_degree_steps():
    t0 = time.perf_counter()
    ok = True
    detail = ""

    def rfn(x):
        return x if isinstance(x, RationalFn) else RationalFn.from_poly(x)

    for n in range(1, 5):
        for j in range(1, n + 1):
            twist_step = min_degree(twist_coeff(n, n, 2 * j)) - min_degree(
                twist_coeff(n, n, 2 * (j - 1))
            )
            fusion_step = min_degree(
                rfn(delta(2 * j)) / rfn(theta(n, n, 2 * j))
            ) - min_degree(rfn(delta(2 * (j - 1))) / rfn(theta(n, n, 2 * (j - 1))))
            if twist_step != -4 * j or fusion_step != -2:
                ok = False
                detail = f"n={n}, j={j}: steps {twist_step}, {fusion_step}"
                break
    # the top channel's twist weight is a bare framing monomial
    for n in range(1, 5):
        if twist_coeff(n, n, 2 * n) != LaurentPoly.monomial(-n * n, 1):
            ok = False
            detail = f"top channel weight wrong at n={n}"
            break
    gate(10, "channel weight degrees step by -4j and -2", 1, ok,
         time.perf_counter() - t0, detail)
