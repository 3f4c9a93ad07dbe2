import contextlib
import copy
import hashlib
import io
import itertools
import json
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fixtures import standard_spec
from oracles import argparse_row_parse, fraction_equality_feasibility
from tverrook import build_chessboard, cli, constraints, geometry, one_row_spec
from tverrook.cli import COMMANDS, _row_parser, main, parse_argv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def radon_instance():
    return {
        "d": 1,
        "points": [
            {"coords": ["0"], "color": 0, "multiplicity": 1},
            {"coords": ["1"], "color": 1, "multiplicity": 1},
            {"coords": ["1/2"], "color": 2, "multiplicity": 1},
        ],
        "r": 2,
        "mode": "free",
    }


BALANCED = {
    "d": 2,
    "points": [
        {"coords": ["0", "0"], "color": 0, "multiplicity": 1},
        {"coords": ["2", "0"], "color": 1, "multiplicity": 1},
        {"coords": ["2", "2"], "color": 2, "multiplicity": 1},
        {"coords": ["0", "2"], "color": 3, "multiplicity": 1},
        {"coords": ["1", "1"], "color": 4, "multiplicity": 1},
    ],
    "r": 2,
}
PRIME_POWER = {
    "d": 1,
    "points": [
        {"coords": ["0"], "color": 0, "multiplicity": 1},
        {"coords": ["1/10"], "color": 0, "multiplicity": 2},
        {"coords": ["1"], "color": 1, "multiplicity": 1},
        {"coords": ["9/10"], "color": 1, "multiplicity": 2},
        {"coords": ["1/2"], "color": 2, "multiplicity": 1},
    ],
    "r": 4,
    "mode": "prime-power-1.3",
}


def test_chessboard_check_verified(capsys):
    code, report, err = run(capsys, "chessboard", "check", "--cols", "1,2", "--rows", "4")
    assert code == 0
    assert report["verdict"] == "verified"
    assert report["subcommand"] == "chessboard check"
    assert report["details"]["report"]["ridge_degrees_ok"]
    assert "pseudomanifold" in err


def test_chessboard_check_refuted(capsys):
    code, report, _ = run(capsys, "chessboard", "check", "--cols", "1,1", "--rows", "4")
    assert code == 1
    assert report["verdict"] == "refuted"


def test_chessboard_check_reports_the_offending_ridges(capsys):
    code, report, _ = run(capsys, "chessboard", "check", "--cols", "1,2", "--rows", "3")
    assert code == 1
    assert report["details"]["report"] == {
        "offending_faces": [[0, 3], [0, 5], [1, 2], [1, 3], [1, 4], [1, 5], [2, 5], [3, 4], [3, 5]],
        "pure": True,
        "ridge_degrees_ok": False,
        "strongly_connected": False,
    }


def test_chessboard_check_of_a_deep_one_column_board(capsys):
    # 201 facets of 200 rooks: every ridge is keyed by one int, not a tuple
    code, report, _ = run(capsys, "chessboard", "check", "--cols", "200")
    assert code == 0
    del report["elapsed_seconds"]
    ok = {"offending_faces": [], "pure": True, "ridge_degrees_ok": True, "strongly_connected": True}
    assert report == {
        "certificate": ok,
        "certificate_path": None,
        "details": {
            "report": ok,
            "spec": {"col_caps": [200], "m": 1, "n": 201, "row_caps": [1] * 201},
        },
        "input_digest": "280b083585877d1841aa88b17c3f8667ae43240e2ea4f58592c3c934f6c1b964",
        "seed": None,
        "subcommand": "chessboard check",
        "verdict": "verified",
    }


def test_long_one_column_board_is_built_in_linear_time(capsys):
    # Each placement is one rook that fills the column; it is complete at
    # once instead of walking the thousands of rows below it.
    start = time.perf_counter()
    code, report, _ = run(capsys, "chessboard", "build", "--cols", "1", "--rows", "5000")
    assert (code, report["details"]["facets"]) == (0, 5000)
    assert time.perf_counter() - start < 1.0


def test_chessboard_build_writes_certificate(capsys, tmp_path):
    out = tmp_path / "complex.json"
    code, report, _ = run(
        capsys, "chessboard", "build", "--cols", "1,1", "--rows", "3", "--out", str(out)
    )
    assert code == 0
    assert report["certificate_path"] == str(out)
    data = json.loads(out.read_text())
    K = build_chessboard(standard_spec(2, 3))
    assert data == K.to_json()


def test_orient(capsys):
    code, report, _ = run(capsys, "orient", "--cols", "1,2")
    assert code == 0
    assert report["details"]["boundary_zero"]
    assert report["details"]["facets"] == 12


def test_collapse_degree(capsys):
    code, report, _ = run(capsys, "collapse", "degree", "--caps", "1,2", "--theta", "1,1")
    assert code == 0
    assert report["details"]["degree_formula"] == "3"
    assert report["details"]["degree_by_counting"] == "3"


def test_collapse_degree_stats_are_deterministic(capsys):
    argv = ("collapse", "degree", "--caps", "1,2,1", "--theta", "1,1,2")
    reports = []
    for _ in range(2):
        code, report, _ = run(capsys, *argv)
        assert code == 0
        report.pop("elapsed_seconds")
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["details"]["stats"] == {"preimages": 3}
    assert "stats" not in reports[0]["certificate"]


@pytest.mark.parametrize(
    "caps, theta",
    [
        ("990", "1"),  # one column of 990 rooks
        ("1,1,1,1,1,1,1,1,1", "1,2,3,4,5,6,7,8,9"),  # the source has 10! facets
    ],
)
def test_collapse_degree_of_large_sources(capsys, caps, theta):
    code, report, _ = run(capsys, "collapse", "degree", "--caps", caps, "--theta", theta)
    assert code == 0
    assert report["details"]["degree_by_counting"] == "1"
    assert report["details"]["stats"] == {"preimages": 1}


def test_collapse_degree_preimage_guard_exit_code(capsys):
    # degree 9! = 362 880 preimage facets: refused by the closed-form count
    ones = ",".join(["1"] * 9)
    code, report, _ = run(capsys, "collapse", "degree", "--caps", ones, "--theta", ones)
    assert code == 4
    assert report["verdict"] == "error"
    assert "preimage" in report["message"]


def test_valuation(capsys):
    code, report, _ = run(capsys, "valuation", "--p", "2", "--m", "8")
    assert code == 0
    assert report["details"]["ord_p_m_factorial"] == 7


def test_obstruction(capsys):
    code, report, err = run(capsys, "obstruction", "--p", "2", "--k", "2", "--d", "1")
    assert code == 0
    assert report["details"]["degree"] == "3"
    assert report["details"]["degree_mod_p"] == 1
    assert len(report["details"]["subgroups"]) == 5
    assert err.count("dim fixed chessboard") == 5


def test_obstruction_guard_exit_code(capsys):
    for p, k in [("2", "5"), ("17", "1")]:
        code, report, _ = run(capsys, "obstruction", "--p", p, "--k", k, "--d", "1")
        assert code == 4
        assert report["verdict"] == "error"
        assert "MAX_OBSTRUCTION_ORDER" in report["message"]


@pytest.mark.parametrize("p, k, subgroups", [(2, 4, 67), (11, 1, 2), (13, 1, 2)])
def test_obstruction_answers_beyond_the_facet_cap(capsys, p, k, subgroups):
    # The trivial subgroup's fixed subcomplex is the whole configuration
    # space (10.8M facets for (2, 4)); the closed form never builds it.
    code, report, err = run(capsys, "obstruction", "--p", str(p), "--k", str(k), "--d", "1")
    assert (code, report["verdict"]) == (0, "verified")
    assert len(report["details"]["subgroups"]) == subgroups
    assert err.count("dim fixed chessboard") == subgroups


@pytest.mark.parametrize(
    "argv",
    [
        # 12 * 11! facets
        ("chessboard", "build", "--cols", "1,1,1,1,1,1,1,1,1,1,1"),
        ("chessboard", "check", "--cols", "1,1,1,1,1,1,1,1,1,1,1"),
    ],
)
def test_facet_cap_exit_code(capsys, argv):
    code, report, _ = run(capsys, *argv)
    assert code == 4
    assert report["verdict"] == "error"
    assert "facets" in report["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("chessboard", "build", "--cols", "990"),
        ("chessboard", "check", "--cols", "990"),
        ("orient", "--cols", "990"),
    ],
)
def test_deep_one_column_boards_are_not_refuted(capsys, argv):
    # Placements of 990 rooks used to end in a RecursionError (exit 1,
    # "refuted"); the placement-size guard refuses them up front.
    code, report, _ = run(capsys, *argv)
    assert code != 1
    assert (code, report["verdict"]) == (4, "error")
    assert "MAX_PLACEMENT_SIZE" in report["message"]


def test_long_boards_below_the_placement_guard_answer(capsys):
    code, report, _ = run(capsys, "chessboard", "build", "--cols", "1", "--rows", "990")
    assert (code, report["details"]["facets"]) == (0, 990)
    assert len(build_chessboard(one_row_spec((600,))).facets) == 601


def test_search_depth_guard_exit_code(capsys, tmp_path):
    # r parts need r nested levels of the search: a huge r is refused up
    # front (exit 4), not left to end in a RecursionError (exit 1).
    instance = radon_instance()
    instance["r"] = 3000
    instance["points"][0]["multiplicity"] = 5000
    path = write_json(tmp_path, "inst.json", instance)
    code, report, _ = run(capsys, "tverberg", "search", "--json", path)
    assert code == 4
    assert report["verdict"] == "error"
    assert "3000" in report["message"]


def test_homology(capsys, tmp_path):
    K = build_chessboard(standard_spec(3, 4))
    path = write_json(tmp_path, "cx.json", K.to_json())
    code, report, _ = run(capsys, "homology", "--json", path)
    assert code == 0
    assert report["details"]["profile"] == [
        {"q": 0, "betti": 0, "torsion": []},
        {"q": 1, "betti": 2, "torsion": []},
        {"q": 2, "betti": 1, "torsion": []},
    ]
    # Every rank of M(3,4) is carried by unit pivots: no remainder reaches SNF.
    # Each map is built without the rows the map below took as unit pivots.
    assert report["details"]["stats"]["boundary"] == [
        {"q": 0, "rows": 1, "compressed": 0, "cols": 12, "units": 1, "peeled": 1, "remainder": [0, 0]},
        {"q": 1, "rows": 12, "compressed": 1, "cols": 36, "units": 11, "peeled": 11, "remainder": [0, 0]},
        {"q": 2, "rows": 36, "compressed": 11, "cols": 24, "units": 23, "peeled": 10, "remainder": [0, 0]},
    ]
    _, again, _ = run(capsys, "homology", "--json", path)
    report.pop("elapsed_seconds")
    again.pop("elapsed_seconds")
    assert again == report


def test_connectivity_exit_codes(capsys, tmp_path):
    K = build_chessboard(standard_spec(2, 3))
    path = write_json(tmp_path, "cx.json", K.to_json())
    code, _, _ = run(capsys, "connectivity", "--json", path, "--level", "0")
    assert code == 0
    code, report, _ = run(capsys, "connectivity", "--json", path, "--level", "1")
    assert code == 1
    assert report["verdict"] == "refuted"
    # the complex whose only face is the empty simplex is not 0-connected
    void = write_json(tmp_path, "void.json", {"universe": [], "facets": []})
    code, report, _ = run(capsys, "connectivity", "--json", void, "--level", "0")
    assert code == 1
    assert report["verdict"] == "refuted"


def test_fixed_points(capsys, tmp_path):
    payload = {
        "spec": {"m": 2, "n": 4, "row_caps": [1, 1, 1, 1], "col_caps": [1, 2]},
        "generators": [[2, 1, 4, 3]],
    }
    path = write_json(tmp_path, "fp.json", payload)
    code, report, _ = run(capsys, "fixed-points", "--json", path)
    assert code == 0
    assert report["details"]["order"] == 2
    assert report["details"]["dimension"] == 0


def test_tverberg_search_found(capsys, tmp_path):
    path = write_json(tmp_path, "inst.json", radon_instance())
    code, report, _ = run(capsys, "tverberg", "search", "--json", path)
    assert code == 0
    assert report["verdict"] == "found"
    assert report["certificate"]["witness"] == ["1/2"]
    # 7 rainbow faces; the first LP, on ((2,), (0, 1)), has 3 rows and 3
    # independent columns, so the elimination answers it with no pivot.
    assert report["details"]["stats"] == {
        "rainbow_faces": 7,
        "box_rows": 3,
        "pruned_dim_cap": 0,
        "pruned_budget": 9,
        "pruned_box": 5,
        "pruned_color": 0,
        "pruned_farkas": 0,
        "lp_calls": 1,
        "lp_feasible": 1,
        "lp_pivots": 0,
        "lp_direct": 1,
    }
    assert "stats" not in report["certificate"]


def test_tverberg_search_exhausted_free_mode(capsys, tmp_path):
    data = radon_instance()
    data["points"] = data["points"][:2]
    path = write_json(tmp_path, "inst.json", data)
    code, report, _ = run(capsys, "tverberg", "search", "--json", path)
    assert code == 2
    assert report["verdict"] == "exhausted"


def test_tverberg_search_exhausted_stats(capsys, tmp_path):
    # Four points in the plane with no colourful Radon partition.  Boxes over
    # e_1, e_2 and e_1 +- e_2 leave two pairs; axis boxes alone would leave
    # four.  The Farkas vector of the first pair's LP also proves the second
    # pair infeasible, so only one LP is solved.
    coords = [["1", "1/3"], ["2", "-4"], ["5", "-4/3"], ["1", "-1/3"]]
    data = {
        "d": 2,
        "points": [{"coords": c, "color": color} for c, color in zip(coords, [0, 1, 2, 2])],
        "r": 2,
    }
    path = write_json(tmp_path, "inst.json", data)
    code, report, _ = run(capsys, "tverberg", "search", "--json", path)
    assert code == 2
    assert report["details"]["candidates_examined"] == 2
    assert report["details"]["stats"] == {
        "rainbow_faces": 11,
        "box_rows": 11,
        "pruned_dim_cap": 0,
        "pruned_budget": 46,
        "pruned_box": 18,
        "pruned_color": 0,
        "pruned_farkas": 1,
        "lp_calls": 1,
        "lp_feasible": 0,
        "lp_pivots": 3,
        "lp_direct": 0,
    }


def test_malformed_rational_is_input_error(capsys, tmp_path):
    data = radon_instance()
    data["points"][0]["coords"] = ["1/0"]
    path = write_json(tmp_path, "inst.json", data)
    code, report, _ = run(capsys, "tverberg", "search", "--json", path)
    assert code == 3
    assert report["verdict"] == "error"


def test_missing_file_is_input_error(capsys):
    code, report, _ = run(capsys, "tverberg", "search", "--json", "/no/such/file.json")
    assert code == 3


def test_unknown_flag_is_input_error(capsys):
    assert main(["valuation", "--p", "2", "--m", "8", "--bogus"]) == 3


VALUATION = ["valuation", "--p", "2", "--m", "8"]


ARGV_EXIT_CODES = [
    (["--seed=7", *VALUATION], 0),
    (["--se", "7", *VALUATION], 0),
    (["--help"], 0),
    (["-h", "bogus"], 0),
    (["valuation", "--help"], 0),
    (["collapse", "--help"], 0),
    (["collapse", "--he"], 0),
    (["collapse", "-h", "degree"], 0),
    ([], 3),
    (["--seed", "7"], 3),
    (["--seed"], 3),
    (["--seed", "x", *VALUATION], 3),
    (["--sed", "7", *VALUATION], 3),
    (["--", *VALUATION], 3),
    (["collapse"], 3),
    (["collapse", "bogus"], 3),
    (["bogus"], 3),
    ([*VALUATION, "--seed", "3"], 3),
    (["collapse", "--seed", "3", "degree", "--caps", "1,2", "--theta", "1,1"], 3),
    (["--seed", "--help", *VALUATION], 3),
]


@pytest.mark.parametrize(
    "argv, code", ARGV_EXIT_CODES, ids=[" ".join(argv) or "no-argv" for argv, _ in ARGV_EXIT_CODES]
)
def test_global_flags_and_command_words_exit_codes(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 3:
        assert captured.err.startswith("usage: tverrook")
        assert captured.out == ""


def test_seed_followed_by_a_flag_expects_one_argument(capsys):
    assert main(["--seed", "--help", *VALUATION]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: expected one argument" in captured.err


@pytest.mark.parametrize("flags, seed", [
    (["--seed=7"], 7), (["--se", "7"], 7), (["--s=7"], 7), (["--seed", "-3"], -3),
    (["--seed", "1", "--seed", "2"], 2), ([], 0), (["--se", "-3"], -3),
])
def test_seed_forms_are_echoed(capsys, tmp_path, flags, seed):
    path = write_json(tmp_path, "inst.json", radon_instance())
    code, report, _ = run(capsys, *flags, "tverberg", "search", "--json", path)
    assert (code, report["seed"]) == (0, seed)


def test_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "--seed SEED" in out
    for command in COMMANDS:
        assert f"  {' '.join(command.words)} " in out
    assert main(["chessboard", "--help"]) == 0
    out = capsys.readouterr().out
    assert "chessboard build" in out and "chessboard check" in out and "valuation" not in out


def one_point_colours(n):
    """n one-point colour classes on a line: 2^n - 1 rainbow faces."""
    return {
        "d": 1,
        "points": [{"coords": [str(i)], "color": i, "multiplicity": 1} for i in range(n)],
        "r": 2,
        "mode": "free",
    }


FORTY_COLOURS = one_point_colours(40)


def generalized(data, c):
    """The instance in mode generalized-6.2 with c removed sets."""
    return dict(data, mode="generalized-6.2", constraint_count=c)


# Two one-point classes on a line, r = 2: with c removed sets the c empty
# classes 2..c+1 and the empty last class leave c + 1 > c units unused.
TWO_COLOURS = one_point_colours(2)


def simplex(n):
    """The complex of one facet on n vertices."""
    return {"universe": list(range(n)), "facets": [list(range(n))]}


# A valid two-face solution for r = 10^8 + 1: lifting it would build 2 * 10^8 points.
HUGE_LIFT = {
    "config": {
        "d": 1,
        "points": [
            {"coords": ["0"], "color": 0, "multiplicity": 10**8},
            {"coords": ["2"], "color": 1, "multiplicity": 10**8},
            {"coords": ["1"], "color": 2, "multiplicity": 1},
        ],
    },
    "solution": {"faces": [[0, 1], [2]], "witness": ["1"], "certificates": [["1/2", "1/2"], ["1"]]},
    "r": 10**8 + 1,
}


# Inputs that used to hang or end in a traceback: each is refused at once.
@pytest.mark.parametrize(
    "argv, data, code",
    [
        (["example-a", "--p", "2", "--k", "100000000", "--d", "1"], None, 3),
        (["example-a", "--p", "2305843009213693951", "--k", "1", "--d", "1"], None, 3),
        (["valuation", "--p", "2305843009213693951", "--m", "8"], None, 4),
        (["tverberg", "search"], dict(PRIME_POWER, r=2305843009213693951), 4),
        (["tverberg", "search"], FORTY_COLOURS, 4),
        (["tverberg", "search"], one_point_colours(16), 4),
        (["example-a", "--p", "2", "--k", "1", "--d", "40"], None, 4),
        # refused from the closed-form face count, before 10^5 points of 10^5 coordinates
        (["example-a", "--p", "2", "--k", "1", "--d", "100000"], None, 4),
        (["homology"], simplex(24), 4),
        (["homology"], simplex(40), 4),
        (["connectivity", "--level", "30"], simplex(24), 4),
        (["homology"], simplex(22), 4),
        (["lift"], HUGE_LIFT, 4),
        (["collapse", "degree", "--caps", "1,1", "--theta", "1,1000000000"], None, 3),
        (["chessboard", "check", "--cols", "1", "--rows", "100000000"], None, 4),
        (["orient", "--cols", "1", "--rows", "3000000000"], None, 4),
        (["collapse", "degree", "--caps", "99999999999999999999", "--theta", "1"], None, 4),
        (["collapse", "degree", "--caps", "1000000", "--theta", "1"], None, 4),
        (["tverberg", "search"], generalized(TWO_COLOURS, 1200), 3),
        (["tverberg", "search"], generalized(TWO_COLOURS, 10**9), 3),
    ],
    ids=["example-a-huge-k", "example-a-huge-p", "valuation-huge-p", "prime-power-huge-r",
         "search-2^40-rainbow-faces", "search-2^16-rainbow-faces", "example-a-2^42-rainbow-faces",
         "example-a-2^100002-rainbow-faces",
         "homology-2^24-faces", "homology-2^40-faces", "connectivity-2^24-faces",
         "homology-22*2^21-entries", "lift-huge-r", "collapse-theta-past-the-columns",
         "check-10^8-rows", "orient-3*10^9-rows", "collapse-10^20-cap", "collapse-10^6-cap",
         "generalized-1200-sets-too-few-classes", "generalized-10^9-sets-too-few-classes"],
)
def test_guards_answer_within_a_second(capsys, tmp_path, argv, data, code):
    if data is not None:
        argv = argv + ["--json", write_json(tmp_path, "in.json", data)]
    start = time.monotonic()
    got, report, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert (got, report["verdict"]) == (code, "error")
    assert "Traceback" not in err


@pytest.mark.parametrize("c", [1200, 10**9])
def test_removed_sets_past_the_classes_answer_at_once(capsys, tmp_path, c):
    # Each empty class among 3..c+1 and the empty last class leaves one unit
    # unused, c in all, and c sets of weight <= 1 hold them: the hypothesis
    # holds, whatever c is, and the search finds the Radon partition.
    path = write_json(tmp_path, "in.json", generalized(radon_instance(), c))
    start = time.monotonic()
    code, report, err = run(capsys, "tverberg", "search", "--json", path)
    assert time.monotonic() - start < 1.0
    assert (code, report["verdict"], report["certificate"]["witness"]) == (0, "found", ["1/2"])
    assert "Traceback" not in err


def big_coordinates_crossing():
    """Two crossing plane segments, colours 0, 1, 0, 1, each coordinate moved
    by a seeded fraction of 1200-digit parts: every coordinate prints, but
    the crossing point has parts of more than 4300 digits."""
    rng = random.Random(0)

    def coordinate(base):
        den = rng.randrange(10**1199, 10**1200)
        return f"{base * den + rng.randrange(1, den // 1000)}/{den}"

    corners = [((0, 0), 0), ((2, 2), 1), ((0, 2), 0), ((2, 0), 1)]
    return {
        "d": 2, "r": 2, "mode": "free",
        "points": [{"coords": [coordinate(x) for x in xy], "color": c, "multiplicity": 1}
                   for xy, c in corners],
    }


# str() refuses an int of more than sys.get_int_max_str_digits() digits; a
# report that would print one is a resource error, not a traceback (exit 1).
@pytest.mark.parametrize(
    "argv, data",
    [
        (["example-a", "--p", "2", "--k", "1", "--d", "1", "--epsilon", "1/1" + "0" * 4298], None),
        (["tverberg", "search"], big_coordinates_crossing()),
    ],
    ids=["example-a-epsilon-of-4299-digits", "search-witness-past-the-limit"],
)
def test_reports_past_the_int_digit_limit_are_resource_errors(capsys, tmp_path, argv, data):
    assert sys.get_int_max_str_digits() == 4300
    if data is not None:
        argv = argv + ["--json", write_json(tmp_path, "in.json", data)]
    code, report, err = run(capsys, *argv)
    assert (code, report["verdict"]) == (4, "error")
    assert "Traceback" not in err and "4300 digits" in report["message"]


# A guard's count of more than 4300 digits is shown by its bit length: printed
# whole, it would end in a ValueError traceback (exit 1).
@pytest.mark.parametrize(
    "argv, data",
    [
        (["tverberg", "search"], one_point_colours(15_000)),
        (["collapse", "degree", "--caps", "25000,24999", "--theta", "1,1"], None),
        (["unavoidable", "check"], {
            "multiset": {"vertices": [0, 1, 2, 3], "multiplicity": {"0": 1, "1": 1, "2": 1, "3": 1}},
            "r": 10**4000 - 1,
            "complex": {"universe": [0, 1, 2, 3], "facets": [[0]]},
        }),
    ],
    ids=["search-2^15000-rainbow-faces", "collapse-degree-of-15000-digits",
         "unavoidable-r-of-4000-digits"],
)
def test_guard_counts_past_the_int_digit_limit_show_their_bit_length(capsys, tmp_path, argv, data):
    if data is not None:
        argv = argv + ["--json", write_json(tmp_path, "in.json", data)]
    code, report, err = run(capsys, *argv)
    assert (code, report["verdict"]) == (4, "error")
    assert "bits>" in report["message"] and "Traceback" not in err


@pytest.mark.parametrize("field, value", [("coords", ["1" * 100_000]), ("color", "x" * 100_000)],
                         ids=["coordinate-of-100000-digits", "color-of-100000-characters"])
def test_a_long_rejected_value_is_echoed_short(capsys, tmp_path, field, value):
    data = radon_instance()
    data["points"][0][field] = value
    code = main(["tverberg", "search", "--json", write_json(tmp_path, "in.json", data)])
    captured = capsys.readouterr()
    assert code == 3 and json.loads(captured.out)["verdict"] == "error"
    assert len(captured.out.encode()) < 1024 and len(captured.err.encode()) < 1024
    assert "(100002 characters)" in captured.out


def test_subgroup_closure_guard_trips_before_it_stores_the_closure(capsys, tmp_path):
    # the 10^5-cycle generates 10^5 elements of 10^5 entries each; the entry
    # cap stops the closure after 10 of them
    n = 100_000
    data = {
        "spec": {"m": 1, "n": n, "row_caps": [1] * n, "col_caps": [n - 1]},
        "generators": [list(range(2, n + 1)) + [1]],
    }
    path = write_json(tmp_path, "in.json", data)
    start = time.monotonic()
    code, report, err = run(capsys, "fixed-points", "--json", path)
    assert time.monotonic() - start < 1.0
    assert (code, report["verdict"]) == (4, "error")
    assert "SUBGROUP_ENTRY_CAP" in report["message"] and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, verdict",
    [
        (["chessboard", "check", "--cols", "1", "--rows", "5000"], "refuted"),
        (["chessboard", "build", "--cols", "600"], "verified"),
        (["collapse", "degree", "--caps", "990", "--theta", "1"], "verified"),
    ],
    ids=["check-5000-rows", "build-one-cap-of-600", "collapse-one-cap-of-990"],
)
def test_boards_inside_the_size_guards_answer(capsys, argv, verdict):
    code, report, err = run(capsys, *argv)
    assert (code, report["verdict"]) == (cli.VERDICT_EXIT[verdict], verdict)
    assert "Traceback" not in err


def test_theta_past_the_column_count_keeps_the_surjectivity_message(capsys):
    code, report, _ = run(capsys, "collapse", "degree", "--caps", "1,1", "--theta", "1,1000000000")
    assert (code, report["message"]) == (3, "theta must be surjective onto [1..1000000000]")


def test_low_connectivity_of_a_large_simplex_lists_only_low_faces(capsys, tmp_path):
    path = write_json(tmp_path, "in.json", simplex(40))
    start = time.monotonic()
    code, report, _ = run(capsys, "connectivity", "--json", path, "--level", "0")
    assert time.monotonic() - start < 1.0
    assert (code, report["verdict"]) == (0, "verified")


def test_box_work_guard_refuses_a_large_dimension_at_once(capsys, tmp_path):
    # 3 one-point colours in d = 6000: 7 rainbow faces, but the boxes would
    # take 36 M directions per point and face, minutes and gigabytes
    data = {
        "d": 6000,
        "points": [{"coords": [str(i)] * 6000, "color": i, "multiplicity": 1} for i in range(3)],
        "r": 2,
        "mode": "free",
    }
    path = write_json(tmp_path, "in.json", data)
    start = time.monotonic()
    code, report, err = run(capsys, "tverberg", "search", "--json", path)
    assert time.monotonic() - start < 1.0
    assert (code, report["verdict"]) == (4, "error")
    assert "MAX_BOX_WORK" in report["message"] and "Traceback" not in err


def test_example_a_under_the_box_work_guard_builds_few_box_rows(capsys):
    # (2,1,11): 13 points, 8191 rainbow faces and 121 directions, just under
    # both guards; the search picks 13 faces before its last position
    for epsilon in ("1/100", "0"):
        code, report, _ = run(capsys, "example-a", "--p", "2", "--k", "1", "--d", "11",
                              "--epsilon", epsilon)
        assert (code, report["verdict"]) == (0, "found")
        stats = report["details"]["stats"]
        assert (stats["rainbow_faces"], stats["box_rows"]) == (8191, 13)


def test_rainbow_faces_under_the_mask_cap_answer(capsys, tmp_path):
    assert 2**12 - 1 <= geometry.MAX_RAINBOW_FACES < 2**16 - 1
    code, report, _ = run(capsys, "tverberg", "search", "--json",
                          write_json(tmp_path, "in.json", one_point_colours(12)))
    assert (code, report["verdict"], report["details"]["stats"]["rainbow_faces"]) == (0, "found", 4095)


def test_every_report_is_one_json_line(capsys, tmp_path):
    argvs = [
        ["chessboard", "build", "--cols", "1,2"],
        ["chessboard", "check", "--cols", "1,2"],
        ["orient", "--cols", "1,2"],
        ["collapse", "degree", "--caps", "1,2", "--theta", "1,1"],
        VALUATION,
        ["obstruction", "--p", "2", "--k", "2", "--d", "1"],
        ["example-a", "--p", "2", "--k", "1", "--d", "1"],
    ] + [
        argv + ["--json", write_json(tmp_path, f"in{i}.json", data)]
        for i, (argv, data) in enumerate(VALID_INPUTS)
    ]
    seen = set()
    for argv in argvs:
        assert main(argv) in (0, 1, 2)
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1, argv
        seen.add(json.loads(out)["subcommand"])
    assert seen == {" ".join(command.words) for command in COMMANDS}
    assert main(["valuation", "--p", "4", "--m", "8"]) == 3
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and json.loads(out)["verdict"] == "error"
    cert = tmp_path / "cert.json"
    assert main([*VALUATION, "--out", str(cert)]) == 0
    capsys.readouterr()
    text = cert.read_text()
    assert text.count("\n") == 1 and json.loads(text) == {"m": 8, "ord_p_m_factorial": 7, "p": 2}


START_UP = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tverrook.cli import main
codes = [
    main(["collapse", "degree", "--caps", "1,2", "--theta", "1,1"]),
    main(["homology", "--json", sys.argv[2]]),
    main(["tverberg", "search", "--json", sys.argv[3]]),
]
lean = [name for name in ("dataclasses", "inspect", "argparse", "hashlib", "_hashlib")
        if name in sys.modules]
help_code = main(["--help"])
print(json.dumps([codes, lean, help_code, "argparse" in sys.modules]))
"""


def test_start_up_imports_neither_dataclasses_argparse_nor_hashlib(tmp_path):
    """A fresh interpreter answers three requests without importing dataclasses,
    inspect, argparse, or hashlib and its OpenSSL module ``_hashlib``; only
    help builds a parser and imports argparse.

    It runs without ``site`` (``-S``), whose start-up hooks are the host's.
    """
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    complex_path = write_json(tmp_path, "k.json", {"universe": [0, 1, 2], "facets": [[0, 1], [1, 2]]})
    proc = subprocess.run(
        [sys.executable, "-S", "-c", START_UP, src, complex_path,
         write_json(tmp_path, "inst.json", radon_instance())],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    codes, lean, help_code, argparse_after_help = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert lean == []
    assert (help_code, argparse_after_help) == (0, True)


@pytest.mark.parametrize("payload", [
    {},
    {"argv": ["chessboard", "check", "--cols", "200"]},
    {"b": [1, 2, 3], "a": {"z": None, "y": "1/2"}, "é": True},
    [list(range(300)), "x" * 5000],
])
def test_digest_is_sha256_of_the_encoded_payload(payload):
    text = cli._encode(payload)
    assert cli._digest(payload) == hashlib.sha256(text.encode()).hexdigest()


NO_BUILT_IN_SHA256 = """
import json, sys
sys.path.insert(0, sys.argv[1])
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from tverrook import cli
cli.main(["chessboard", "check", "--cols", "200"])
print(json.dumps("hashlib" in sys.modules))
"""


def test_digest_falls_back_to_hashlib():
    """Without the interpreter's built-in SHA-256 module the digest comes from
    hashlib and is the same."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", NO_BUILT_IN_SHA256, src],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report, used_hashlib = map(json.loads, proc.stdout.splitlines())
    assert used_hashlib
    assert report["input_digest"] == "280b083585877d1841aa88b17c3f8667ae43240e2ea4f58592c3c934f6c1b964"


def test_balanced_search(capsys, tmp_path):
    path = write_json(tmp_path, "bal.json", BALANCED)
    code, report, _ = run(capsys, "balanced", "search", "--json", path)
    assert code == 0
    assert report["certificate"]["witness"] == ["1", "1"]
    assert report["details"]["policy"] == "shifted-k-plus-1"
    # k = 1, s = 0 under the shifted policy: no face may reach dimension 2,
    # so the dimension caps cut every face of three or more points.
    stats = report["details"]["stats"]
    assert (stats["rainbow_faces"], stats["pruned_dim_cap"], stats["lp_calls"]) == (31, 64, 1)


def test_lift_roundtrip(capsys, tmp_path):
    path = write_json(tmp_path, "inst.json", PRIME_POWER)
    code, report, _ = run(capsys, "tverberg", "search", "--json", path)
    assert code == 0
    lift_input = {"config": PRIME_POWER, "solution": report["certificate"], "r": 4}
    path = write_json(tmp_path, "lift.json", lift_input)
    code, report, _ = run(capsys, "lift", "--json", path)
    assert code == 0
    faces = report["certificate"]["solution"]["faces"]
    used = [v for f in faces for v in f]
    assert len(used) == len(set(used))


def test_example_a(capsys):
    code, report, _ = run(capsys, "example-a", "--p", "2", "--k", "2", "--d", "2")
    assert code == 0
    assert report["details"]["witness"] == ["1", "1"]


def test_unavoidable_check(capsys, tmp_path):
    payload = {
        "multiset": {"vertices": [0, 1, 2], "multiplicity": {"0": 1, "1": 1, "2": 1}},
        "r": 2,
        "avoid_set": [0],
    }
    path = write_json(tmp_path, "un.json", payload)
    code, report, _ = run(capsys, "unavoidable", "check", "--json", path)
    assert code == 0
    assert report["details"]["unavoidable"]
    assert report["details"]["stats"] == {"minimal_non_faces": 1, "collections_examined": 1}
    assert report["certificate"] == {"m_weight": 1, "hypothesis_holds": True, "unavoidable": True}
    payload["avoid_set"] = [0, 1]
    path = write_json(tmp_path, "un2.json", payload)
    code, report, _ = run(capsys, "unavoidable", "check", "--json", path)
    assert code == 1
    assert report["details"]["counterexample"] == [[0], [1]]
    assert report["details"]["stats"] == {"minimal_non_faces": 2, "collections_examined": 2}


def test_unavoidable_check_complex_stats(capsys, tmp_path):
    payload = {
        "multiset": {"vertices": [0, 1, 2], "multiplicity": {"0": 1, "1": 2, "2": 1}},
        "r": 2,
        "complex": {"universe": [0, 1, 2], "facets": [[0, 1], [1, 2]]},
    }
    path = write_json(tmp_path, "un.json", payload)
    code, report, _ = run(capsys, "unavoidable", "check", "--json", path)
    assert code == 0
    assert report["details"] == {
        "unavoidable": True,
        "stats": {"minimal_non_faces": 1, "collections_examined": 1},
    }
    assert report["certificate"] == {"unavoidable": True}


# Thousands of copies of one member: a search that recursed once per member
# ended in a RecursionError (exit 1) on both.
@pytest.mark.parametrize(
    "payload, members",
    [
        ({"multiset": {"vertices": [0], "multiplicity": {"0": 5000}}, "r": 5000,
          "avoid_set": [0]}, 5000),
        ({"multiset": {"vertices": [0, 1], "multiplicity": {"0": 3000, "1": 1}}, "r": 3000,
          "complex": {"universe": [1], "facets": [[1]]}}, 3000),
    ],
    ids=["avoid-set-r-5000", "complex-r-3000"],
)
def test_unavoidable_many_copies_of_one_member(capsys, tmp_path, payload, members):
    path = write_json(tmp_path, "un.json", payload)
    code, report, err = run(capsys, "unavoidable", "check", "--json", path)
    assert code == 1
    assert "Traceback" not in err
    assert report["details"]["counterexample"] == [[0]] * members
    assert report["details"]["stats"] == {"minimal_non_faces": 1, "collections_examined": 1}


@pytest.mark.parametrize(
    "n, avoid, r", [(18, [0, 1], 3), (200, [0, 1, 2, 3, 4], 6)], ids=["18-vertices", "200-vertices"]
)
def test_unavoidable_large_universe_answers(capsys, tmp_path, n, avoid, r):
    # A scan of all 2^n subsets hits the guard at n = 18 (no claim) and never
    # ends at n = 200; the search over minimal non-faces sees only the avoid set.
    payload = {
        "multiset": {"vertices": list(range(n)), "multiplicity": {str(v): 1 for v in range(n)}},
        "r": r,
        "avoid_set": avoid,
    }
    path = write_json(tmp_path, "un.json", payload)
    code, report, _ = run(capsys, "unavoidable", "check", "--json", path)
    assert code == 0
    assert report["details"]["hypothesis_holds"] and report["details"]["unavoidable"]
    assert report["details"]["stats"]["minimal_non_faces"] == len(avoid)


def test_unavoidable_avoid_set_beyond_the_guard_is_a_resource_error(capsys, tmp_path):
    # comb(14 + 15 - 1, 15) collections of the 14 singletons pass the guard;
    # this once reported "refuted" (exit 1) though the hypothesis holds.
    payload = {
        "multiset": {"vertices": list(range(15)), "multiplicity": {str(v): 1 for v in range(15)}},
        "r": 15,
        "avoid_set": list(range(14)),
    }
    path = write_json(tmp_path, "un.json", payload)
    code, report, err = run(capsys, "unavoidable", "check", "--json", path)
    assert code == 4
    assert report["verdict"] == "error"
    assert "candidate collections exceed the guard" in report["message"]
    assert "Traceback" not in err


def test_unavoidable_many_facets_trip_a_small_guard(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(constraints, "COLLECTION_GUARD", 20)
    payload = {
        "multiset": {"vertices": list(range(10)), "multiplicity": {str(v): 1 for v in range(10)}},
        "r": 1,
        "complex": {
            "universe": list(range(10)),
            "facets": [list(e) for e in itertools.combinations(range(10), 2)],
        },
    }
    path = write_json(tmp_path, "un.json", payload)
    code, report, err = run(capsys, "unavoidable", "check", "--json", path)
    assert code == 4
    assert report["verdict"] == "error"
    assert "minimal non-face candidates" in report["message"]  # Berge's family, not the estimate
    assert "Traceback" not in err


def test_constrain(capsys, tmp_path):
    payload = {
        "complex": {"universe": [0, 1, 2, 3], "facets": [[0, 1, 2], [2, 3]]},
        "avoid_sets": [[1]],
    }
    path = write_json(tmp_path, "con.json", payload)
    code, report, _ = run(capsys, "constrain", "--json", path)
    assert code == 0
    assert report["certificate"]["facets"] == [[0, 2], [2, 3]]


def test_reports_are_deterministic(capsys, tmp_path):
    path = write_json(tmp_path, "inst.json", radon_instance())
    reports = []
    for _ in range(2):
        _, report, _ = run(capsys, "tverberg", "search", "--json", path)
        report.pop("elapsed_seconds")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def test_seed_is_reported(capsys, tmp_path):
    path = write_json(tmp_path, "inst.json", radon_instance())
    _, report, _ = run(capsys, "--seed", "9", "tverberg", "search", "--json", path)
    assert report["seed"] == 9


def test_parser_state_does_not_pass_between_calls(capsys, tmp_path):
    parser = _row_parser(("example-a",))
    assert parser is _row_parser(("example-a",))
    example = ["example-a", "--p", "2", "--k", "2", "--d", "2"]
    path = write_json(tmp_path, "inst.json", radon_instance())
    _, report, _ = run(capsys, "--seed", "5", *example, "--epsilon", "1/100")
    assert report["seed"] == 5
    _, report, _ = run(capsys, *example)
    assert report["seed"] == 0
    code, report, _ = run(capsys, "--seed", "7", "tverberg", "search", "--json", path)
    assert (code, report["seed"], report["subcommand"]) == (0, 7, "tverberg search")
    code, report, _ = run(capsys, "valuation", "--p", "2", "--m", "8")
    assert (code, report["seed"], report["details"]["ord_p_m_factorial"]) == (0, None, 7)
    code, report, _ = run(capsys, "tverberg", "search", "--json", path)
    assert (code, report["seed"]) == (0, 0)
    assert main(["example-a", "--p", "2"]) == 3
    capsys.readouterr()
    _, report, _ = run(capsys, *example)
    assert (report["seed"], report["subcommand"]) == (0, "example-a")
    assert _row_parser(("example-a",)) is parser
    assert parser.get_default("epsilon") == "0" and parser.get_default("seed") is None


def test_cached_row_parser_returns_a_fresh_namespace_per_call():
    example = ["example-a", "--p", "2", "--k", "2", "--d", "2"]
    command, first = parse_argv(["--seed=7", *example, "--epsilon", "1/100", "--out", "a.json"])
    again, second = parse_argv(["example-a", "--p", "3", "--k", "1", "--d", "1"])
    assert command is again and command.words == ("example-a",)
    assert first is not second
    assert vars(first) == {"seed": 7, "p": 2, "k": 2, "d": 2, "epsilon": "1/100", "out": "a.json"}
    assert vars(second) == {"seed": 0, "p": 3, "k": 1, "d": 1, "epsilon": "0", "out": None}


def _parse_outcome(parse, words, rest):
    """vars(namespace), or (exit code, stdout, stderr) of a SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(words, rest, 5))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


# Values as the rows' flags see them: ints, caps lists, a rational, paths,
# negative numbers, values that start with "-" and values with a space.
ROW_VALUES = ["1", "2", "1,2", "0", "x", "", "1/100", "-3", "-.5", "-1,2", "-x", "a b",
              "-1 2", " 7", "in.json", "-h", "-"]
# Tokens that are neither a row flag nor its value: the separator, help
# forms, an ambiguous prefix, unknown flags and positionals.
ROW_NOISE = ["--", "-h", "-hx", "-hh", "-h=", "--help", "--he", "--help=x", "--=x", "--bogus",
             "--seed", "-caps", "-x", "---", "x", "7", "-1", "a b"]


@st.composite
def row_argv(draw):
    command = draw(st.sampled_from(COMMANDS))
    flags = [flag for flag, _ in command.args] + ["--out"]
    prefixes = sorted({flag[:k] for flag in flags for k in range(3, len(flag) + 1)})
    pair = st.tuples(st.sampled_from(prefixes), st.sampled_from(ROW_VALUES), st.booleans()).map(
        lambda t: [f"{t[0]}={t[1]}"] if t[2] else [t[0], t[1]]
    )
    noise = st.sampled_from(ROW_NOISE).map(lambda token: [token])
    items = draw(st.lists(st.one_of(pair, pair, pair, noise), max_size=5))
    if draw(st.booleans()):  # every flag once, with a value its loader takes
        items += [[flag, "2"] for flag in flags[:-1]]
    return command.words, [token for item in draw(st.permutations(items)) for token in item]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=row_argv())
def test_row_parse_matches_the_argparse_oracle(case):
    words, rest = case
    got = _parse_outcome(cli._parse_row, words, rest)
    assert got == _parse_outcome(argparse_row_parse, words, rest)
    if isinstance(got, tuple):
        assert got[0] in (0, 2)
        assert (got[1] if got[0] == 0 else got[2]).startswith(f"usage: tverrook {' '.join(words)}")


def _exact_pair(flag, kwargs):
    """`--flag v` with v not starting with "-", or `--flag=v`; ints for int flags."""
    value = st.integers(-99, 99).map(str) if kwargs.get("type") else st.text("ab1,/ =-", max_size=4)
    spaced = value.filter(lambda v: v[:1] != "-").map(lambda v: [flag, v])
    joined = value.filter(lambda v: v != "--").map(lambda v: [f"{flag}={v}"])
    return spaced | joined


@st.composite
def exact_row_argv(draw):
    """A row's argv in the forms `_parse_row` reads by hand: every required
    flag, then any flags again, `--out` among them, in any order."""
    command = draw(st.sampled_from(COMMANDS))
    args = command.args + (("--out", {}),)
    items = [draw(_exact_pair(flag, kw)) for flag, kw in args if kw.get("required")]
    items += draw(st.lists(st.sampled_from(args).flatmap(lambda a: _exact_pair(*a)), max_size=4))
    return command.words, [token for item in draw(st.permutations(items)) for token in item]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=exact_row_argv())
def test_exact_flags_are_read_by_hand_as_argparse_reads_them(case):
    words, rest = case
    expected = vars(argparse_row_parse(words, rest, 5))

    def refuse(words):
        raise AssertionError(f"argparse parser built for {words}")

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cli, "_row_parser", refuse)
        assert vars(cli._parse_row(words, rest, 5)) == expected


def test_rows_use_only_the_keywords_the_pass_reads():
    for command in COMMANDS:
        for flag, kwargs in command.args:
            assert flag.startswith("--")
            assert set(kwargs) <= {"type", "required", "default", "help"}
            assert kwargs.get("type", int) is int


def test_flag_equals_double_dash_is_a_value():
    # The one input where the hand reading and argparse differ on purpose:
    # argparse 3.11 strips "--" from an explicit value and stores [], which
    # the loaders cannot read; the hand reading keeps the string, and a []
    # from argparse is a usage error.
    _, args = parse_argv(["collapse", "degree", "--caps=--", "--theta", "1"])
    assert args.caps == "--"
    assert main(["collapse", "degree", "--caps=--", "--theta", "1"]) == 3
    assert main(["valuation", "--p=--", "--m", "3"]) == 3


def test_workload_argv_shapes_parse_without_argparse(monkeypatch):
    def refuse(words):
        raise AssertionError(f"argparse parser built for {words}")

    monkeypatch.setattr(cli, "_row_parser", refuse)
    shapes = [
        (["chessboard", "check", "--cols", "1,2"], {"cols": "1,2", "rows": None}),
        (["orient", "--cols", "2,1,1"], {"cols": "2,1,1", "rows": None}),
        (["collapse", "degree", "--caps", "1,2", "--theta", "1,1"], {"caps": "1,2", "theta": "1,1"}),
        (["obstruction", "--p", "2", "--k", "1", "--d", "1"], {"p": 2, "k": 1, "d": 1}),
        (["--seed", "3", "example-a", "--p", "2", "--k", "2", "--d", "2", "--epsilon", "1/100"],
         {"seed": 3, "p": 2, "k": 2, "d": 2, "epsilon": "1/100"}),
        (["--seed", "4", "tverberg", "search", "--json", "in.json"], {"seed": 4, "json": "in.json"}),
        (["lift", "--json", "in.json"], {"json": "in.json"}),
        (["--seed", "1", "balanced", "search", "--json", "in.json"], {"seed": 1, "json": "in.json"}),
        (["unavoidable", "check", "--json", "in.json"], {"json": "in.json"}),
        (["homology", "--json", "in.json"], {"json": "in.json"}),
        (["connectivity", "--json", "in.json", "--level", "1"], {"json": "in.json", "level": 1}),
    ]
    for argv, expected in shapes:
        _, args = parse_argv(argv)
        assert vars(args) == {"seed": 0, "out": None, **expected}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_example_a_matches_fraction_lp_oracle(capsys, monkeypatch, seed):
    # The elimination answers Example A's one LP; patched out, the integer
    # simplex answers it, and must give the Fraction simplex's report.
    argv = ["--seed", str(seed), "example-a", "--p", "2", "--k", "2", "--d", "2",
            "--epsilon", "1/100"]

    def run_example():
        assert main(argv) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        report.pop("elapsed_seconds")
        return report, captured.err

    direct = run_example()
    monkeypatch.setattr(geometry, "unique_solution", lambda A, b: None)
    outputs = []
    for solver in (geometry.solve_equality_feasibility, fraction_equality_feasibility):
        monkeypatch.setattr(geometry, "solve_equality_feasibility", solver)
        outputs.append(run_example())
    assert outputs[0] == outputs[1]
    # with and without the elimination, only the LP counters differ
    on, off = direct[0]["details"]["stats"], outputs[0][0]["details"]["stats"]
    assert (on.pop("lp_direct"), off.pop("lp_direct")) == (1, 0)
    assert on.pop("lp_pivots") == 0 < off.pop("lp_pivots")
    assert direct == outputs[0]


UNAVOIDABLE_INPUT = {
    "multiset": {"vertices": [0, 1, 2], "multiplicity": {"0": 1, "1": 1, "2": 1}},
    "r": 2,
    "avoid_set": [0],
}
RADON_SOLUTION = {
    "faces": [[2], [0, 1]],
    "witness": ["1/2"],
    "certificates": [["1"], ["1/2", "1/2"]],
}
# The Radon points with the exceptional (last) point twice.
RADON_TWO_EXCEPTIONAL = radon_instance()
RADON_TWO_EXCEPTIONAL["points"].append(RADON_TWO_EXCEPTIONAL["points"][2])
LIFT_SOLUTION = {
    "faces": [[4], [0, 2], [1, 3], [1, 3]],
    "witness": ["1/2"],
    "certificates": [["1"], ["1/2", "1/2"], ["1/2", "1/2"], ["1/2", "1/2"]],
}
# The prime-power points with the exceptional (last) point of multiplicity 2.
PRIME_POWER_TWO_EXCEPTIONAL = copy.deepcopy(PRIME_POWER)
PRIME_POWER_TWO_EXCEPTIONAL["points"][4]["multiplicity"] = 2


COMPLEX = {"universe": [0, 1, 2, 3], "facets": [[0, 1, 2], [2, 3]]}


# Malformed inputs: each is an input error, never a traceback.
@pytest.mark.parametrize(
    "argv, data",
    [
        (["tverberg", "search"], dict(radon_instance(), r="x")),
        (["balanced", "search"], dict(radon_instance(), dim_caps={"k": 1})),
        (["homology"], {"universe": [0, 1, 2], "facets": [[0, "a"]]}),
        (["unavoidable", "check"], dict(UNAVOIDABLE_INPUT, r="two")),
        (["balanced", "search"], [radon_instance()]),
        (["unavoidable", "check"], dict(UNAVOIDABLE_INPUT, r=-1)),
        (["fixed-points"], {
            "spec": {"m": 2, "n": 4.0, "row_caps": [1, 1, 1, 1], "col_caps": [1, 2]},
            "generators": [[2, 1, 4, 3]],
        }),
        (["lift"], {"config": radon_instance(), "r": 2,
                    "solution": dict(RADON_SOLUTION, faces=[[0, 1]])}),
        (["lift"], {"config": RADON_TWO_EXCEPTIONAL, "r": 2, "solution": RADON_SOLUTION}),
        (["valuation", "--p", "2", "--m", "8", "--out", "/no/such/dir/cert.json"], None),
        (["tverberg", "search"], dict(radon_instance(), r=2.9)),
        (["tverberg", "search"], dict(radon_instance(), d=True)),
        (["tverberg", "search"], dict(radon_instance(), d=1.0)),
        (["tverberg", "search"], dict(radon_instance(), points=[
            dict(pt, color=pt["color"] + 0.7) for pt in radon_instance()["points"]])),
        (["tverberg", "search"], dict(radon_instance(), points=[
            dict(pt, multiplicity=1.5) for pt in radon_instance()["points"]])),
        (["tverberg", "search"], dict(radon_instance(), constraint_count=0.5)),
        (["balanced", "search"], dict(BALANCED, dim_caps={"k": 1.5, "s": 1})),
        (["balanced", "search"], dict(BALANCED, dim_caps={"k": 1, "s": "1"})),
        (["tverberg", "search"], dict(radon_instance(), dim_caps={"k": 1, "s": -1})),
        (["tverberg", "search"], dict(radon_instance(), dim_caps={"k": -5, "s": 1})),
        (["lift"], {"config": PRIME_POWER, "solution": LIFT_SOLUTION, "r": 4.0}),
        (["unavoidable", "check"], dict(UNAVOIDABLE_INPUT, r=2.5)),
        (["unavoidable", "check"], dict(UNAVOIDABLE_INPUT, multiset={
            "vertices": [0, 1, 2], "multiplicity": {"0": 1, "1": 1.9, "2": 1}})),
        (["fixed-points"], {
            "spec": {"m": 2, "n": 3, "row_caps": [1, 1, 1], "col_caps": [1, 1]},
            "generators": [[2.0, 1.0, 3.0]],
        }),
        (["fixed-points"], {
            "spec": {"m": True, "n": 3, "row_caps": [1, 1, 1], "col_caps": [1]},
            "generators": [[2, 1, 3]],
        }),
        (["lift"], {"config": PRIME_POWER, "r": 4,
                    "solution": dict(LIFT_SOLUTION, faces=[[4], [0, 2], [1.9, 3], [1, 3]])}),
        (["homology"], {"universe": [0, 1, 2], "facets": [[True, 2]]}),
        (["homology"], {"universe": [0, 1, True], "facets": [[0, 1]]}),
        (["unavoidable", "check"], dict(UNAVOIDABLE_INPUT, multiset={
            "vertices": [0, True, 2.0], "multiplicity": {"0": 1, "1": 1, "2": 1}})),
        (["unavoidable", "check"], dict(UNAVOIDABLE_INPUT, multiset={
            "vertices": [0, 1, 2], "multiplicity": {"0": 1, "1": 5, "01": 1, "2": 1}})),
        (["tverberg", "search"], dict(radon_instance(), points=[
            dict(pt, coords=["1e-100000000"]) for pt in radon_instance()["points"]])),
        (["example-a", "--p", "2", "--k", "1", "--d", "1", "--epsilon", "1e-10000000"], None),
        (["fixed-points"], {
            "spec": {"m": 2, "n": 4, "row_caps": [2, 1, 1, 1], "col_caps": [1, 2]},
            "generators": [[2, 1, 4, 3]],
        }),
        (["fixed-points"], {
            "spec": {"m": 2, "n": 4, "row_caps": [True, 1, 1, 1], "col_caps": [1, 2]},
            "generators": [[2, 1, 4, 3]],
        }),
        (["fixed-points"], {
            "spec": {"m": 2, "n": 4, "row_caps": [1, 1, 1], "col_caps": [1, 2]},
            "generators": [[2, 1, 4, 3]],
        }),
        (["homology"], {"universe": [0], "facets": [[0, 1]]}),
        (["chessboard", "check", "--cols", "0"], None),
        (["unavoidable", "check"], {"multiset": UNAVOIDABLE_INPUT["multiset"], "r": 2}),
        (["tverberg", "search"], dict(BALANCED, mode="balanced-1.6")),
        (["balanced", "search"], dict(BALANCED, points=BALANCED["points"][:4])),
        # the second face, on points of colours 0, 1 and 1, meets the witness
        (["lift"], {"config": PRIME_POWER, "r": 4, "solution": dict(
            LIFT_SOLUTION, faces=[[4], [0, 2, 3], [1, 3], [1, 3]],
            certificates=[["1"], ["1/2", "1/2", "0"], ["1/2", "1/2"], ["1/2", "1/2"]])}),
        # a valid solution, but the exceptional point lifts to one vertex
        (["lift"], {"config": PRIME_POWER_TWO_EXCEPTIONAL, "r": 4, "solution": dict(
            LIFT_SOLUTION, faces=[[4], [4], [1, 3], [1, 3]],
            certificates=[["1"], ["1"], ["1/2", "1/2"], ["1/2", "1/2"]])}),
        (["example-a", "--p", "4", "--k", "1", "--d", "1"], None),
        (["obstruction", "--p", "4", "--k", "1", "--d", "1"], None),
        (["valuation", "--p", "1", "--m", "5"], None),
        (["valuation", "--p", "9", "--m", "5"], None),
        (["valuation", "--p", "2", "--m=-1"], None),
        (["obstruction", "--p", "2", "--k", "0", "--d", "1"], None),
        (["homology"], {"universe": [], "facets": []}),
        (["connectivity", "--level", "-2"], COMPLEX),
        # balanced search reads constraint_count as tverberg search does
        (["balanced", "search"], dict(BALANCED, constraint_count=0.5)),
    ],
    ids=[
        "r-not-integer", "dim-caps-without-s", "non-integer-vertex", "unavoidable-r-not-integer",
        "balanced-top-level-list", "unavoidable-r-negative", "board-size-not-integer",
        "lift-solution-not-verified", "lift-two-exceptional-vertices", "out-not-writable",
        "r-float", "d-bool", "d-float", "color-float", "multiplicity-float",
        "constraint-count-float", "dim-caps-k-float", "dim-caps-s-string", "dim-caps-s-negative",
        "dim-caps-k-negative", "lift-r-float", "unavoidable-r-float", "multiset-multiplicity-float",
        "generator-float", "board-size-bool", "lift-face-index-float", "vertex-bool",
        "universe-bool", "multiset-vertex-bool", "multiset-key-not-canonical",
        "coordinate-exponent", "epsilon-exponent", "row-cap-2", "row-cap-bool", "row-caps-short",
        "facet-outside-universe", "chessboard-void", "unavoidable-neither-input",
        "balanced-mode-multiset-proper", "balanced-point-count", "lift-face-not-rainbow",
        "lift-exceptional-reused", "example-a-p-not-prime", "obstruction-p-not-prime",
        "valuation-p-1", "valuation-p-9", "valuation-m-negative", "obstruction-k-0",
        "homology-empty-simplex", "connectivity-level-below-minus-1",
        "balanced-constraint-count-float",
    ],
)
def test_malformed_input_is_input_error(capsys, tmp_path, argv, data):
    if data is not None:
        argv = argv + ["--json", write_json(tmp_path, "in.json", data)]
    start = time.monotonic()
    code, report, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert report["verdict"] == "error"
    assert "Traceback" not in err


DEEP = 100_000  # levels of nesting; the decoder gives up near 1000


@pytest.mark.parametrize("argv", [["homology"], ["tverberg", "search"], ["unavoidable", "check"]],
                         ids=["homology", "tverberg-search", "unavoidable-check"])
@pytest.mark.parametrize(
    "text",
    ["[" * DEEP + "]" * DEEP,
     '{"universe": [0], "facets": [[0]], "junk": ' + "[" * DEEP + "]" * DEEP + "}"],
    ids=["nested-array", "nested-value-in-an-object"],
)
def test_deeply_nested_json_is_input_error(capsys, tmp_path, argv, text):
    # json.dumps cannot write this much nesting, so the file is raw text.
    # json.load raises RecursionError on it; uncaught, that exits 1, "refuted".
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, report, err = run(capsys, *argv, "--json", str(path))
    assert code == 3
    assert report["verdict"] == "error"
    assert "Traceback" not in err


# Valid inputs of every subcommand that reads JSON.  Values stay small: the
# property is about malformed input, not about instances too large to run.
VALID_INPUTS = [
    (["homology"], COMPLEX),
    (["connectivity", "--level", "0"], COMPLEX),
    (["constrain"], {"complex": COMPLEX, "avoid_sets": [[1]]}),
    (["fixed-points"], {
        "spec": {"m": 2, "n": 4, "row_caps": [1, 1, 1, 1], "col_caps": [1, 2]},
        "generators": [[2, 1, 4, 3]],
    }),
    (["tverberg", "search"], radon_instance()),
    (["tverberg", "search"], PRIME_POWER),
    (["balanced", "search"], BALANCED),
    (["lift"], {"config": PRIME_POWER, "solution": LIFT_SOLUTION, "r": 4}),
    (["unavoidable", "check"], UNAVOIDABLE_INPUT),
    (["unavoidable", "check"], {
        "multiset": UNAVOIDABLE_INPUT["multiset"], "r": 2,
        "complex": {"universe": [0, 1, 2], "facets": [[0, 1]]},
    }),
]

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(-4, 4),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.sampled_from(["", "x", "1/2", "1/0", "2", "free", "prime-power-1.3", "balanced-1.6",
                     "literal-k", "vertex-disjoint"]),
)
KEYS = st.sampled_from(["0", "1", "r", "d", "k", "s", "m", "n", "coords", "color", "points"])
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, value in children:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """`doc` with one to three nodes replaced by arbitrary JSON or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(VALUES)
    return doc


@pytest.mark.parametrize(
    "argv, base", VALID_INPUTS, ids=[" ".join(argv) for argv, _ in VALID_INPUTS]
)
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_json_never_reaches_a_traceback(tmp_path, argv, base, data):
    doc = data.draw(mutated(base), label="input")
    argv = argv + ["--json", write_json(tmp_path, "in.json", doc)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert 0 <= code <= 4
    report = json.loads(out.getvalue())
    assert (report["verdict"] == "error") == (code >= 3)
