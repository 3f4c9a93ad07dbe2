import contextlib
import copy
import io
import itertools
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import fraction_equality_feasibility
from tverrook import build_chessboard, constraints, geometry, one_row_spec, standard_spec
from tverrook.cli import build_parser, main


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
    # 201 facets of 200 rooks: every ridge is keyed by a bitmask, not a tuple
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
        {"q": 0, "rows": 1, "compressed": 0, "cols": 12, "units": 1, "remainder": [0, 0]},
        {"q": 1, "rows": 12, "compressed": 1, "cols": 36, "units": 11, "remainder": [0, 0]},
        {"q": 2, "rows": 36, "compressed": 11, "cols": 24, "units": 23, "remainder": [0, 0]},
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
    # 7 rainbow faces; the first LP, on ((2,), (0, 1)), is feasible.
    assert report["details"]["stats"] == {
        "rainbow_faces": 7,
        "pruned_dim_cap": 0,
        "pruned_budget": 9,
        "pruned_box": 5,
        "lp_calls": 1,
        "lp_feasible": 1,
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
    # e_1, e_2 and e_1 +- e_2 leave two pairs for the LP; axis boxes alone
    # would leave four.
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
        "pruned_dim_cap": 0,
        "pruned_budget": 46,
        "pruned_box": 18,
        "lp_calls": 2,
        "lp_feasible": 0,
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
    assert build_parser() is build_parser()
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


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_example_a_matches_fraction_lp_oracle(capsys, monkeypatch, seed):
    argv = ["--seed", str(seed), "example-a", "--p", "2", "--k", "2", "--d", "2",
            "--epsilon", "1/100"]
    outputs = []
    for solver in (geometry.solve_equality_feasibility, fraction_equality_feasibility):
        monkeypatch.setattr(geometry, "solve_equality_feasibility", solver)
        assert main(argv) == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.out.splitlines() if '"elapsed_seconds"' not in line]
        outputs.append(("\n".join(lines), captured.err))
    assert outputs[0] == outputs[1]


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
    ],
    ids=[
        "r-not-integer", "dim-caps-without-s", "non-integer-vertex", "unavoidable-r-not-integer",
        "balanced-top-level-list", "unavoidable-r-negative", "board-size-not-integer",
        "lift-solution-not-verified", "lift-two-exceptional-vertices", "out-not-writable",
        "r-float", "d-bool", "d-float", "color-float", "multiplicity-float",
        "constraint-count-float", "dim-caps-k-float", "dim-caps-s-string", "dim-caps-s-negative",
        "dim-caps-k-negative", "lift-r-float", "unavoidable-r-float", "multiset-multiplicity-float",
    ],
)
def test_malformed_input_is_input_error(capsys, tmp_path, argv, data):
    if data is not None:
        argv = argv + ["--json", write_json(tmp_path, "in.json", data)]
    code, report, err = run(capsys, *argv)
    assert code == 3
    assert report["verdict"] == "error"
    assert "Traceback" not in err


COMPLEX = {"universe": [0, 1, 2, 3], "facets": [[0, 1, 2], [2, 3]]}

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
