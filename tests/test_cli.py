"""End-to-end checks of the ``skein`` command line.

Everything here drives the click entry points through CliRunner; the
few numeric expectations are recomputed through the library so the
command output is compared against the code it fronts, not against
copied constants.
"""

import csv
import io
import json
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

import skeinkit
from skeinkit import cli
from skeinkit.algebra import delta, exact_div, substitute_quarter, theta
from skeinkit.diagram import (
    LinkDiagram,
    minus_graph,
    parse_pd,
    pretzel,
    reduced_minus_graph,
)
from skeinkit.invariants import bracket_state_sum, colored_state_sum, reduced_jones
from skeinkit.series import ColumnMemo
from skeinkit.stability import normalize, window_from_reduced

from test_series import euler

TREFOIL_PD = "PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]]"
# V - E + F = 0: a drawing on the torus, not in the plane
TORUS_CROSSINGS = [[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 2], [4, 7, 3, 8]]
TORUS_PD = "PD[" + ",".join("X[%d,%d,%d,%d]" % tuple(x) for x in TORUS_CROSSINGS) + "]"


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args, env=None, **kwargs):
    return runner.invoke(cli.main, list(args), env=env, **kwargs)


def module_env(**extra):
    """The environment for ``python -m skeinkit`` run from this checkout."""
    src = os.path.dirname(os.path.dirname(skeinkit.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                **extra)


# -- bracket -------------------------------------------------------------------


class TestBracket:
    def test_trefoil_pretzel(self, runner):
        result = run(runner, "bracket", "--pretzel", "1,1,1")
        assert result.exit_code == 0
        want = bracket_state_sum(pretzel([1, 1, 1])).value
        assert f"bracket: {want}" in result.output
        assert f"min degree: {want.min_degree()}" in result.output
        assert "(agrees)" in result.output

    def test_two_column_pretzel_is_valid(self, runner):
        result = run(runner, "bracket", "--pretzel", "1,1")
        assert result.exit_code == 0
        assert "min degree: -6" in result.output

    def test_pd_file(self, runner, tmp_path):
        path = tmp_path / "trefoil.pd"
        path.write_text(TREFOIL_PD)
        result = run(runner, "bracket", "--pd", str(path))
        assert result.exit_code == 0
        from skeinkit.diagram import parse_pd

        want = bracket_state_sum(parse_pd(TREFOIL_PD)).value
        assert f"bracket: {want}" in result.output

    def test_bad_pd_names_file_and_position(self, runner, tmp_path):
        path = tmp_path / "broken.pd"
        path.write_text("PD[X[1,4,2,")
        result = run(runner, "bracket", "--pd", str(path))
        assert result.exit_code != 0
        assert "broken.pd" in result.output
        assert "position" in result.output

    def test_diagram_json_file(self, runner, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(pretzel([2, 2, 2]).to_json())
        result = run(runner, "bracket", "--diagram-json", str(path))
        assert result.exit_code == 0
        want = bracket_state_sum(pretzel([2, 2, 2])).value
        assert f"bracket: {want}" in result.output

    def test_non_planar_pd_file_is_refused(self, runner, tmp_path):
        path = tmp_path / "torus.pd"
        path.write_text(TORUS_PD)
        result = run(runner, "bracket", "--pd", str(path))
        assert result.exit_code == 1
        assert "torus.pd" in result.output
        assert "does not draw a planar diagram" in result.output
        assert "bracket:" not in result.output

    def test_two_sources_rejected(self, runner, tmp_path):
        path = tmp_path / "trefoil.pd"
        path.write_text(TREFOIL_PD)
        result = run(runner, "bracket", "--pretzel", "1,1,1", "--pd", str(path))
        assert result.exit_code == 2
        assert "--pretzel" in result.output and "--pd" in result.output

    def test_no_source_rejected(self, runner):
        result = run(runner, "bracket")
        assert result.exit_code == 2
        assert "exactly one" in result.output

    def test_budget_error_names_the_flag(self, runner):
        result = run(runner, "bracket", "--pretzel", "8,6,8", "--max-states", "1024")
        assert result.exit_code == 1
        assert "--max-states" in result.output
        assert "22 crossings" in result.output

    def test_non_integer_column_is_located(self, runner):
        result = run(runner, "bracket", "--pretzel", "1,x,3")
        assert result.exit_code == 2
        assert "--pretzel" in result.output
        assert "column 2" in result.output

    @pytest.mark.parametrize("counts", ["1_0", "٣,2", "2,²"])
    def test_non_ascii_column_is_refused(self, runner, counts):
        # int() reads "1_0" as 10 and "٣" as 3
        result = run(runner, "bracket", "--pretzel", counts)
        assert result.exit_code == 2
        assert "--pretzel" in result.output
        assert "bracket:" not in result.output

    def test_non_integer_arc_label_is_refused(self, runner, tmp_path):
        path = tmp_path / "float.json"
        path.write_text(json.dumps({"crossings": [[1.9, 1, 2, 2]], "regions": []}))
        result = run(runner, "bracket", "--diagram-json", str(path))
        assert result.exit_code == 1
        assert "float.json" in result.output
        assert "bracket:" not in result.output

    @pytest.mark.parametrize("loops", [1.5, True])
    def test_non_integer_free_loops_are_refused(self, runner, tmp_path, loops):
        path = tmp_path / "loops.json"
        path.write_text(json.dumps({"crossings": [], "regions": [], "free_loops": loops}))
        result = run(runner, "bracket", "--diagram-json", str(path))
        assert result.exit_code == 1
        assert "loops.json" in result.output and "free_loops" in result.output
        assert "bracket:" not in result.output

    def test_empty_diagram(self, runner, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(LinkDiagram((), ()).to_json())
        result = run(runner, "bracket", "--diagram-json", str(path))
        assert result.exit_code == 0
        assert "bracket: 1" in result.output


# -- table ---------------------------------------------------------------------


def parse_text_rows(output):
    rows = []
    for line in output.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        head, _, rest = line.partition(":")
        k = int(head.split("=")[1])
        rows.append((k, [int(c) for c in rest.split()]))
    return rows


def parse_csv_rows(output):
    rows = []
    for rec in csv.reader(io.StringIO(output)):
        rows.append((int(rec[0]), [int(c) for c in rec[1:]]))
    return rows


def parse_json_rows(output):
    doc = json.loads(output)
    return [(row["parameter"], row["window"]) for row in doc["rows"]]


class TestTable:
    def test_growing_window_family(self, runner):
        result = run(
            runner,
            "table",
            "--pretzel-family", "8,6,k",
            "--color", "2",
            "--range", "1..6",
            "--window", "k+1",
        )
        assert result.exit_code == 0
        rows = parse_text_rows(result.output)
        full = [1, -1, 3, -4, 6, -8, 10]
        assert rows == [(k, full[: k + 1]) for k in range(1, 7)]

    def test_formats_carry_identical_numbers(self, runner):
        args = [
            "table",
            "--pretzel-family", "k,k,2",
            "--range", "1..5",
            "--window", "k+1",
        ]
        text = run(runner, *args, "--format", "text")
        as_csv = run(runner, *args, "--format", "csv")
        as_json = run(runner, *args, "--format", "json")
        assert text.exit_code == as_csv.exit_code == as_json.exit_code == 0
        rows = parse_text_rows(text.output)
        assert parse_csv_rows(as_csv.output) == rows
        assert parse_json_rows(as_json.output) == rows

    def test_color_expression_tracks_the_parameter(self, runner):
        result = run(
            runner,
            "table",
            "--pretzel-family", "2,5,k",
            "--color", "k+1",
            "--range", "1..3",
            "--window", "k+1",
            "--format", "json",
        )
        assert result.exit_code == 0
        rows = parse_json_rows(result.output)
        assert rows == [(1, [1, -1]), (2, [1, -1, -1]), (3, [1, -1, -1, 0])]

    def test_family_regrows_a_smoothed_region(self, runner):
        # at k = 0 both growing columns are smoothed away; each member is
        # a fresh pretzel, so they grow back at k = 1
        result = run(
            runner,
            "table",
            "--pretzel-family", "k,k,2",
            "--color", "3",
            "--range", "0..3",
            "--window", "5",
        )
        assert result.exit_code == 0, result.output
        want = []
        for k in range(4):
            qp = reduced_jones(pretzel([k, k, 2]), 3)
            want.append((k, list(normalize(window_from_reduced(qp, 5)).coeffs)))
        assert parse_text_rows(result.output) == want

    def test_empty_range_is_a_usage_error(self, runner):
        result = run(
            runner,
            "table",
            "--pretzel-family", "8,6,k",
            "--range", "5..3",
            "--window", "k+1",
        )
        assert result.exit_code == 2
        assert "--range" in result.output
        assert "empty parameter range 5..3" in result.output

    @pytest.mark.parametrize("text", ["١..٢", "1..٢"])
    def test_non_ascii_range_is_a_usage_error(self, runner, text):
        result = run(
            runner,
            "table",
            "--pretzel-family", "8,6,k",
            "--range", text,
            "--window", "k+1",
        )
        assert result.exit_code == 2
        assert "expected START..STOP" in result.output

    def test_deep_nesting_is_a_usage_error(self, runner):
        result = run(
            runner,
            "table",
            "--pretzel-family", "(" * 1200 + "k" + ")" * 1200 + ",2,3",
            "--range", "1..2",
            "--window", "k+1",
        )
        assert result.exit_code == 2
        assert "--pretzel-family" in result.output
        assert "nests too deeply" in result.output

    def test_superscript_window_is_a_usage_error(self, runner):
        # "k²" is not k squared and not a parameter named "k²"
        result = run(
            runner,
            "table",
            "--pretzel-family", "2,3,k",
            "--color", "2",
            "--range", "1..2",
            "--window", "k²",
        )
        assert result.exit_code == 2
        assert "--window" in result.output
        assert "column 2" in result.output

    def test_long_flat_expression(self, runner):
        # 3001 terms of k in one sum: the rows of 3001*k
        rows = []
        for size in ("k+" * 3000 + "k", "3001*k"):
            result = run(
                runner,
                "table",
                "--pretzel-family", size + ",2,3",
                "--color", "2",
                "--range", "1..2",
                "--window", "3",
            )
            assert result.exit_code == 0, result.output
            rows.append(parse_text_rows(result.output))
        assert rows[0] == rows[1] and [k for k, _ in rows[0]] == [1, 2]

    def test_malformed_range(self, runner):
        result = run(
            runner,
            "table",
            "--pretzel-family", "8,6,k",
            "--range", "1..x",
            "--window", "k+1",
        )
        assert result.exit_code == 2
        assert "START..STOP" in result.output

    def test_window_expression_error_is_positioned(self, runner):
        result = run(
            runner,
            "table",
            "--pretzel-family", "8,6,k",
            "--range", "1..3",
            "--window", "k$",
        )
        assert result.exit_code == 2
        assert "--window" in result.output
        assert "column 2" in result.output

    def test_family_expression_error_names_the_column(self, runner):
        result = run(
            runner,
            "table",
            "--pretzel-family", "8,6$,k",
            "--range", "1..3",
            "--window", "k+1",
        )
        assert result.exit_code == 2
        assert "--pretzel-family" in result.output
        assert "column 2" in result.output

    def test_two_parameters_rejected(self, runner):
        result = run(
            runner,
            "table",
            "--pretzel-family", "8,6,k",
            "--range", "1..3",
            "--window", "k+m",
        )
        assert result.exit_code == 2
        assert "one parameter" in result.output

    def test_invalid_color_value_fails_cleanly(self, runner):
        result = run(
            runner,
            "table",
            "--pretzel-family", "2,3,2",
            "--color", "1",
            "--range", "1..2",
            "--window", "3",
        )
        assert result.exit_code == 1
        assert "parameter 1" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "family,start,stop,members",
        [
            # regions 1 and 2 are smoothed away, leaving no recorded site
            ("0,0,k", 2, 3, lambda k: [0, 0, k]),
            # region 3 grows back beside region 2's closed side
            ("2,k+1,k", 0, 2, lambda k: [2, k + 1, k]),
        ],
    )
    def test_members_with_zero_regions(self, runner, family, start, stop, members):
        result = run(
            runner,
            "table",
            "--pretzel-family", family,
            "--color", "3",
            "--range", f"{start}..{stop}",
            "--window", "4",
        )
        assert result.exit_code == 0, result.output
        want = []
        for k in range(start, stop + 1):
            # the clasped state sum of a fresh pretzel, not the fused path
            # the command takes
            value = colored_state_sum(pretzel(members(k)), 2).value
            qp = substitute_quarter(exact_div(value, delta(2)))
            want.append((k, list(normalize(window_from_reduced(qp, 4)).coeffs)))
        assert parse_text_rows(result.output) == want

    def test_member_past_the_sweep_cap_prints(self, runner):
        # members are rings, so a 22-crossing member takes the fused path;
        # its oracle is the classical sweep, past its default cap
        result = run(
            runner,
            "table",
            "--pretzel-family", "0,0,k,1",
            "--color", "2",
            "--range", "20..20",
            "--window", "2",
        )
        assert result.exit_code == 0, result.output
        value = bracket_state_sum(pretzel([0, 0, 20, 1]), max_crossings=30).value
        qp = substitute_quarter(exact_div(value, delta(1)))
        want = list(normalize(window_from_reduced(qp, 2)).coeffs)
        assert parse_text_rows(result.output) == [(20, want)]

    def test_zero_column_family_matches_the_sweep(self, runner):
        result = run(
            runner,
            "table",
            "--pretzel-family", "0,0,k,1",
            "--color", "2",
            "--range", "1..2",
            "--window", "4",
        )
        assert result.exit_code == 0, result.output
        want = []
        for k in (1, 2):
            value = bracket_state_sum(pretzel([0, 0, k, 1])).value
            qp = substitute_quarter(exact_div(value, delta(1)))
            want.append((k, list(normalize(window_from_reduced(qp, 4)).coeffs)))
        assert parse_text_rows(result.output) == want

    def test_empty_column_beside_one_column_is_its_trace(self, runner):
        # pretzel([0, k]) lays out as Ring((0, k), 0), and its
        # empty column folds into a loop: the other column closes around
        # the side.  The oracle is the clasped state sum of that trace
        # closure, drawn in PD
        result = run(
            runner,
            "table",
            "--pretzel-family", "0,k",
            "--color", "3",
            "--range", "1..2",
            "--window", "2",
        )
        assert result.exit_code == 0, result.output
        want = []
        for k in (1, 2):
            left = [1, *range(3, 2 * k + 1, 2), 1]
            right = [2, *range(4, 2 * k + 2, 2), 2]
            pd = ",".join(
                f"X[{left[j]},{right[j]},{right[j + 1]},{left[j + 1]}]"
                for j in range(k))
            value = colored_state_sum(parse_pd(f"PD[{pd}]"), 2).value
            qp = substitute_quarter(exact_div(value, delta(2)))
            want.append((k, list(normalize(window_from_reduced(qp, 2)).coeffs)))
        assert parse_text_rows(result.output) == want

    def test_color_locked_rows_at_high_color(self, runner):
        # the default budget counts the column terms the windows build,
        # so it takes the published family at color 190 and beyond; each
        # row is the first k+1 coefficients of (q;q)_inf
        result = run(
            runner,
            "table",
            "--pretzel-family", "2,5,k",
            "--color", "k+1",
            "--range", "190..192",
            "--window", "k+1",
        )
        assert result.exit_code == 0, result.output
        assert parse_text_rows(result.output) == [
            (k, euler(k + 1)) for k in range(190, 193)]

    def test_one_column_rings_at_high_color(self, runner):
        # a one-column ring is an unknot with k curls: its reduced
        # polynomial is a monomial at every color, taken in one sum
        result = run(
            runner,
            "table",
            "--pretzel-family", "k",
            "--color", "201",
            "--range", "3..5",
            "--window", "5",
        )
        assert result.exit_code == 0, result.output
        assert parse_text_rows(result.output) == [
            (k, [1, 0, 0, 0, 0]) for k in range(3, 6)]

    @pytest.mark.parametrize(
        "extra,message",
        [
            # windows wide enough to reach most channels of most exits
            (["--color", "400", "--window", "160000"],
             "at least 101010 fusion column terms exceed the configured cap "
             "of 100000"),
            (["--color", "4", "--window", "20", "--max-networks", "10"],
             "at least 12 fusion column terms exceed the configured cap of "
             "10"),
        ],
        ids=["default-cap", "lowered-cap"],
    )
    def test_network_budget_names_max_networks(self, runner, extra, message):
        result = run(
            runner,
            "table",
            "--pretzel-family", "2,2,k",
            "--range", "1..2",
            *extra,
        )
        assert result.exit_code == 1
        assert f"Error: --max-networks: {message}" in result.output

    def test_negative_member_size_fails_cleanly(self, runner):
        result = run(
            runner,
            "table",
            "--pretzel-family", "8,6,3-k",
            "--range", "2..5",
            "--window", "3",
        )
        assert result.exit_code in (1, 2)
        assert "region" in result.output


# -- tail ----------------------------------------------------------------------


class TestTail:
    def test_passing_rate(self, runner):
        result = run(
            runner,
            "tail",
            "--pretzel-family", "k,k,2",
            "--range", "2..5",
            "--rate", "k+1",
        )
        assert result.exit_code == 0
        assert "result: PASS" in result.output
        assert "step 4: required 5  verified 5  PASS" in result.output
        assert "tail: 1 -1 3 -3 5 -6" in result.output

    def test_long_flat_rate(self, runner):
        # the rate k+1 written as a sum of 3001 terms
        result = run(
            runner,
            "tail",
            "--pretzel-family", "k,k,2",
            "--range", "2..5",
            "--rate", "k-k+" * 1500 + "k+1",
        )
        assert result.exit_code == 0, result.output
        assert "step 4: required 5  verified 5  PASS" in result.output

    def test_inflated_rate_reports_the_witness(self, runner):
        result = run(
            runner,
            "tail",
            "--pretzel-family", "k,k,2",
            "--range", "2..4",
            "--rate", "k+3",
        )
        assert result.exit_code == 0
        assert "result: FAIL" in result.output
        assert "left  1 -1 3 -1 3" in result.output
        assert "right 1 -1 3 -3 3" in result.output

    def test_budget_refusal_is_printed_as_itself(self, runner):
        result = run(
            runner,
            "tail",
            "--pretzel-family", "2,2,k",
            "--color", "400",
            "--range", "1..2",
            "--rate", "160000",
        )
        assert result.exit_code == 1
        assert result.output == (
            "Error: at least 100168 fusion column terms exceed the "
            "configured cap of 100000\n"
        )

    def test_json_report(self, runner):
        result = run(
            runner,
            "tail",
            "--pretzel-family", "k,k,2",
            "--range", "2..4",
            "--rate", "k+1",
            "--format", "json",
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["passed"] is True
        assert doc["rate"] == "k+1"
        assert [s["parameter"] for s in doc["steps"]] == [2, 3]
        assert doc["tail"]["coeffs"][:4] == [1, -1, 3, -3]

    def test_full_range_tail_matches_the_published_row(self, runner):
        result = run(
            runner,
            "tail",
            "--pretzel-family", "k,k,2",
            "--color", "2",
            "--range", "1..10",
            "--rate", "k+1",
        )
        assert result.exit_code == 0
        assert "tail: 1 -1 3 -3 5 -6 7 -8 9 -10 11" in result.output
        assert "result: PASS" in result.output

    def test_single_member_range_passes_trivially(self, runner):
        result = run(
            runner,
            "tail",
            "--pretzel-family", "k,k,2",
            "--range", "3..3",
            "--rate", "k+1",
        )
        assert result.exit_code == 0
        assert "result: PASS" in result.output
        assert "step" not in result.output

    def test_bad_rate_expression(self, runner):
        result = run(
            runner,
            "tail",
            "--pretzel-family", "k,k,2",
            "--range", "2..4",
            "--rate", "k//2",
        )
        assert result.exit_code == 2
        assert "--rate" in result.output


# -- residuals -----------------------------------------------------------------


class TestGraph:
    def test_edge_per_crossing(self, runner):
        result = run(runner, "graph", "--pretzel", "2,2,2")
        assert result.exit_code == 0
        assert result.output.startswith("graph minus {")
        edges = [line for line in result.output.splitlines() if " -- " in line]
        assert len(edges) == 6
        assert len(minus_graph(pretzel([2, 2, 2])).edges) == 6

    def test_reduced_merges_parallel_edges(self, runner):
        result = run(runner, "graph", "--pretzel", "2,2,2", "--reduced")
        assert result.exit_code == 0
        assert result.output.startswith("graph reduced_minus {")
        edges = [line for line in result.output.splitlines() if " -- " in line]
        assert len(edges) == len(reduced_minus_graph(pretzel([2, 2, 2])).edges) == 3

    def test_empty_diagram_is_vertexless_valid_dot(self, runner, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(LinkDiagram((), ()).to_json())
        result = run(runner, "graph", "--diagram-json", str(path))
        assert result.exit_code == 0
        assert "graph minus {" in result.output
        assert " -- " not in result.output
        assert "v0" not in result.output

    def test_non_planar_diagram_json_is_refused(self, runner, tmp_path):
        path = tmp_path / "torus.json"
        path.write_text(json.dumps({"crossings": TORUS_CROSSINGS}))
        result = run(runner, "graph", "--diagram-json", str(path))
        assert result.exit_code == 1
        assert "does not draw a planar diagram" in result.output
        assert "graph minus" not in result.output

    def test_unknown_emit_format_rejected(self, runner):
        result = run(runner, "graph", "--pretzel", "2,2,2", "--emit", "svg")
        assert result.exit_code == 2


# -- verify --------------------------------------------------------------------


class TestVerify:
    def test_identities_suite_passes(self):
        # test_acceptance.py runs the suite and checks that it passes;
        # here only its checks are counted, none is run
        assert len(cli._SUITES["tl-identities"]()) == 8

    def test_rate_suite_passes(self, runner):
        result = run(runner, "verify", "--suite", "rate-theorems")
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["passed"] is True
        names = [c["name"] for c in doc["checks"]]
        assert "colored rate 4n(k-1)+4" in names

    def test_table_suite_passes(self, runner):
        result = run(runner, "verify", "--suite", "paper-tables")
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["passed"] is True
        assert [c["detail"] for c in doc["checks"]] == [
            "10 rows match", "10 rows match", "7 rows match", "5 rows match",
            "11 rows match", "18 rings of 2..7 columns, colors up to 200",
        ]

    def test_high_color_suite_passes(self, runner, monkeypatch):
        # the theta networks at colors 5 and 6 take seconds, so CI runs
        # them; read here as the closed form, the check still counts its
        # triples
        monkeypatch.setattr(cli, "theta_network", theta)
        result = run(runner, "verify", "--suite", "high-color")
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["passed"] is True
        assert [(c["name"], c["detail"]) for c in doc["checks"]] == [
            ("columns 2,5,k at index k+1 up to 201, against Euler's product",
             "193 rows match"),
            ("columns 2,5,k at index 191..201, against Euler's product",
             "11 rows match"),
            ("columns 2,5,k at index 401..411, against Euler's product",
             "11 rows match"),
            ("one column at color 201 is a monomial", "3 rows match"),
            ("a column closed around its side at index k+1 is Delta_2n / Delta_n",
             "11 rows match"),
            ("a zero column's place leaves the rows unchanged",
             "0,5,k, 5,0,k and 5,k,0 agree at k = 295..300"),
            ("theta networks at colors 5 and 6 match the closed form",
             "64 admissible triples with a color of 5 or 6"),
            ("zero columns read from PD codes",
             "trefoil sum at colors 2-3, rotations of 0,2,0,3, split union refused"),
        ]

    def test_high_color_suite_fails_on_a_flipped_euler_coefficient(
            self, runner, monkeypatch):
        euler = cli._euler

        def flipped(count):
            c = list(euler(count))
            if count > 392:
                c[392] = -c[392]  # 392 = m(3m+1)/2 at m = 16
            return c

        monkeypatch.setattr(cli, "_euler", flipped)
        monkeypatch.setattr(cli, "theta_network", theta)
        result = run(runner, "verify", "--suite", "high-color")
        assert result.exit_code == 1
        doc = json.loads(result.stdout)
        (failed,) = [c for c in doc["checks"] if not c["passed"]]
        assert "401..411" in failed["name"]
        assert failed["detail"].startswith("row 400:")

    def test_placement_check_sees_one_place_differ(self, monkeypatch):
        window_rows = cli._window_rows

        def moved(spec, window, max_networks):
            rows = window_rows(spec, window, max_networks)
            if spec.base.counts == (5, 295, 0):
                rows[-1][1][-1] += 1
            return rows

        monkeypatch.setattr(cli, "_window_rows", moved)
        (check,) = [fn for name, fn in cli._SUITES["high-color"]()
                    if name == "a zero column's place leaves the rows unchanged"]
        ok, detail = check()
        assert not ok and detail.startswith("5,k,0 gives")

    def test_suite_shares_one_memo_per_color(self, runner, monkeypatch):
        made = []
        init = ColumnMemo.__init__

        def counting(self, n, digits):
            made.append((n, digits))
            init(self, n, digits)

        def check():
            for counts in ((2, 2, 2), (2, 3, 2)):
                for n in (2, 3):
                    reduced_jones(pretzel(counts), n)
            return True, "done"

        monkeypatch.setattr(ColumnMemo, "__init__", counting)
        monkeypatch.setitem(cli._SUITES, "tl-identities",
                            lambda: [("first", check), ("second", check)])
        result = run(runner, "verify", "--suite", "tl-identities")
        assert result.exit_code == 0
        # (2, 3, 2) spans longer than (2, 2, 2) at each color, so its memo
        # replaces the first; the second check makes none
        (n1, d1), (n2, d2), (n3, d3), (n4, d4) = made
        assert (n1, n2, n3, n4) == (1, 2, 1, 2) and d3 > d1 and d4 > d2

    def test_failing_suite_exits_nonzero(self, runner, monkeypatch):
        monkeypatch.setitem(
            cli._SUITES,
            "tl-identities",
            lambda: [("broken", lambda: (False, "boom"))],
        )
        result = run(runner, "verify", "--suite", "tl-identities")
        assert result.exit_code == 1
        doc = json.loads(result.stdout)
        assert doc["suite"] == "tl-identities"
        assert doc["passed"] is False

    def test_unknown_suite_is_a_usage_error(self, runner):
        result = run(runner, "verify", "--suite", "everything")
        assert result.exit_code == 2
        assert "everything" in result.output

    def test_check_runner_captures_exceptions(self):
        def bad():
            raise RuntimeError("exploded")

        out = cli._run_check("bad", bad)
        assert out.pop("elapsed_seconds") >= 0
        assert out == {"name": "bad", "passed": False, "detail": "RuntimeError: exploded"}

    def test_progress_streams_as_each_check_ends(self, runner, monkeypatch):
        seen = []

        def first():
            return True, "one"

        def second():
            sys.stderr.flush()
            seen.append(sys.stderr.buffer.getvalue().decode())
            return True, "two"

        monkeypatch.setitem(
            cli._SUITES, "tl-identities", lambda: [("first", first), ("second", second)]
        )
        result = run(runner, "verify", "--suite", "tl-identities")
        assert result.exit_code == 0
        line = r"ok   {}: {} \[(\d+\.\d{{3}}) s\]\n"
        one, two = line.format("first", "one"), line.format("second", "two")
        assert len(seen) == 1 and re.fullmatch(one, seen[0])
        times = re.fullmatch(one + two, result.stderr)
        assert times
        doc = json.loads(result.stdout)
        assert [c["name"] for c in doc["checks"]] == ["first", "second"]
        # each line carries its check's own time, as the report has it
        assert [float(t) for t in times.groups()] == [
            c["elapsed_seconds"] for c in doc["checks"]]


# -- group options ---------------------------------------------------------------


class TestGroupOptions:
    def test_version_flag(self, runner):
        result = run(runner, "--version")
        assert result.exit_code == 0
        assert "skein" in result.output

    @pytest.mark.parametrize("module", ["skeinkit", "skeinkit.cli"])
    def test_runs_as_a_module(self, module):
        result = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True, text=True, env=module_env(), timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "verify" in result.stdout

    def test_writes_nothing_under_home(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "skeinkit", "verify", "--suite", "tl-identities"],
            capture_output=True, text=True, env=module_env(HOME=str(tmp_path)),
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_max_states_mapping(self):
        assert cli._max_crossings(1 << 20) == 20
        assert cli._max_crossings(1024) == 10
        assert cli._max_crossings(1) == 0
