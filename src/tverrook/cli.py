"""Command-line entry point: every verification and search as a subcommand.

The subcommands are the rows of one table, ``COMMANDS``.  A row gives the
words of its subcommand, their arguments and help, whether the report
echoes ``--seed``, and two functions:

* a **loader**, ``load(args) -> (payload, loaded)``, turns argv and JSON
  input into typed objects (``loaded``, a tuple) and returns them with the
  payload that ``input_digest`` hashes.  A ``KeyError``, ``TypeError``,
  ``ValueError`` or ``OverflowError`` (``int`` of an infinite float) raised
  while loading is an input error;
* a **runner**, ``run(*loaded) -> (verdict, details, certificate, summary)``,
  does the work.  The summary is the human-readable line for stderr.

``build_parser`` builds the argument parser from the table, once per process.
``run_command`` runs the selected row: digest, timing, the ``--out``
certificate file, the JSON report on stdout, the summary on stderr and the
exit code.  ``main`` turns input errors and tripped guards into error
reports.  Exit codes: 0 verified/found, 1 refuted, 2 exhausted (free mode),
3 input error, 4 resource guard tripped.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from typing import Callable, NamedTuple

from . import chessboard, constraints, geometry, homology, maps, simplicial
from .errors import InputError, ResourceLimitError, json_int

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_EXHAUSTED = 2
EXIT_INPUT = 3
EXIT_RESOURCE = 4

VERDICT_EXIT = {
    "verified": EXIT_OK,
    "found": EXIT_OK,
    "refuted": EXIT_REFUTED,
    "exhausted": EXIT_EXHAUSTED,
}


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _caps_list(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON input {path}: {exc}") from exc


def _verdict(ok: bool) -> str:
    return "verified" if ok else "refuted"


# ---------------------------------------------------------------- loaders


def _load_flags(*names):
    """Loader of integer flags that are also the digest payload."""

    def load(args):
        values = {name: getattr(args, name) for name in names}
        return values, tuple(values.values())

    return load


def _load_board(args):
    cols = _caps_list(args.cols)
    rows = args.rows if args.rows is not None else sum(cols) + 1
    spec = chessboard.one_row_spec(cols, n=rows)
    return spec.to_json(), (spec,)


def _load_collapse(args):
    caps = _caps_list(args.caps)
    theta_vals = _caps_list(args.theta)
    theta = maps.CollapseTheta(len(caps), max(theta_vals), theta_vals)
    return {"caps": list(caps), "theta": list(theta_vals)}, (caps, theta)


def _load_complex(args):
    data = _load_json(args.json)
    return data, (simplicial.Complex.from_json(data),)


def _load_connectivity(args):
    data = _load_json(args.json)
    return {"complex": data, "level": args.level}, (simplicial.Complex.from_json(data), args.level)


def _load_fixed_points(args):
    data = _load_json(args.json)
    spec = chessboard.ChessboardSpec.from_json(data["spec"])
    generators = [chessboard.RowPermutation(tuple(g)) for g in data["generators"]]
    return data, (spec, generators)


def _instance_from_json(data: dict) -> geometry.TverbergInstance:
    config = geometry.PointConfig.from_json(data)
    caps = None
    if data.get("dim_caps"):
        dc = data["dim_caps"]
        caps = geometry.DimCaps(
            json_int(dc["k"], "dim_caps.k"),
            json_int(dc["s"], "dim_caps.s"),
            dc.get("policy", geometry.POLICY_SHIFTED),
        )
    return geometry.TverbergInstance(
        config,
        json_int(data["r"], "r"),
        data.get("mode", "free"),
        caps,
        data.get("disjointness", "multiset-proper"),
    )


def _load_tverberg(args):
    data = _load_json(args.json)
    instance = _instance_from_json(data)
    return data, (instance, json_int(data.get("constraint_count", 0), "constraint_count"))


def _load_balanced(args):
    data = _load_json(args.json)
    defaulted = {"mode": "balanced-1.6", "disjointness": "vertex-disjoint", **data}
    return data, (_instance_from_json(defaulted), 0)


def _load_lift(args):
    data = _load_json(args.json)
    config = geometry.PointConfig.from_json(data["config"])
    solution = geometry.TverbergSolution.from_json(data["solution"])
    return data, (config, solution, json_int(data["r"], "r"))


def _load_example_a(args):
    epsilon = geometry.parse_rational(args.epsilon)
    payload = {"p": args.p, "k": args.k, "d": args.d, "epsilon": str(epsilon), "seed": args.seed}
    return payload, (args.p, args.k, args.d, epsilon, args.seed)


def _load_unavoidable(args):
    data = _load_json(args.json)
    V = constraints.Multiset.from_json(data["multiset"])
    r = json_int(data["r"], "r")
    if "avoid_set" in data:
        return data, (V, r, simplicial.as_simplex(data["avoid_set"]), None)
    if "complex" in data:
        return data, (V, r, None, simplicial.Complex.from_json(data["complex"]))
    raise InputError("unavoidable input needs either 'complex' or 'avoid_set'")


def _load_constrain(args):
    data = _load_json(args.json)
    K = simplicial.Complex.from_json(data["complex"])
    return data, (K, [simplicial.as_simplex(s) for s in data["avoid_sets"]])


# ---------------------------------------------------------------- runners


def _chessboard_build(spec):
    K = chessboard.build_chessboard(spec)
    details = {
        "spec": spec.to_json(),
        "vertices": len(K.vertices),
        "facets": len(K.facets),
        "dimension": K.dimension,
    }
    summary = f"built complex: {len(K.facets)} facets, dimension {K.dimension}"
    return "verified", details, K.to_json(), summary


def _chessboard_check(spec):
    rep = chessboard.check_pseudomanifold(chessboard.build_chessboard(spec))
    verdict = _verdict(rep.all_ok)
    details = {"spec": spec.to_json(), "report": rep.to_json()}
    return verdict, details, rep.to_json(), f"pseudomanifold check: {verdict}"


def _orient(spec):
    tau = chessboard.orient(spec, chessboard.build_chessboard(spec))
    boundary_zero = chessboard.verify_orientation(spec, tau)
    certificate = {"chain": [{"facet": list(f), "sign": s} for f, s in sorted(tau.items())]}
    details = {"facets": len(tau), "boundary_zero": boundary_zero}
    summary = f"orientation on {len(tau)} facets, boundary zero: {boundary_zero}"
    return _verdict(boundary_zero), details, certificate, summary


def _collapse_degree(caps, theta):
    formula = maps.degree_formula(caps, theta)
    signs = maps.preimage_signs(theta, chessboard.one_row_spec(caps))
    counting = sum(signs)
    verdict = _verdict(formula == counting)
    certificate = {
        "degree_formula": str(formula),
        "degree_by_counting": str(counting),
        "target_caps": list(theta.collapse_caps(caps)),
    }
    details = {**certificate, "stats": {"preimages": len(signs)}}
    return verdict, details, certificate, f"degree = {formula} (counting: {counting}) -> {verdict}"


def _valuation(p, m):
    value = maps.legendre_valuation(p, m)
    details = {"p": p, "m": m, "ord_p_m_factorial": value}
    return "verified", details, details, f"ord_{p}({m}!) = {value}"


def _obstruction(p, k, d):
    rep = maps.obstruction_report(p, k, d)
    lines = [f"degree {rep.degree} mod {p} = {rep.degree_mod_p}"]
    lines += [
        f"  {s.descriptor}: dim fixed chessboard {s.dim_fixed_source} <= "
        f"dim fixed sphere {s.dim_fixed_target}: {s.inequality_holds}"
        for s in rep.subgroup_results
    ]
    return _verdict(rep.verdict), rep.to_json(), rep.to_json(), "\n".join(lines)


def _homology(K):
    profile = homology.betti_and_torsion(K)
    certificate = {"profile": profile.to_json()}
    details = {**certificate, "stats": {"boundary": list(profile.boundary)}}
    return "verified", details, certificate, f"reduced Betti numbers: {list(profile.betti)}"


def _connectivity(K, level):
    ok = homology.homological_connectivity(K, level)
    details = {"level": level, "homologically_connected": ok}
    return _verdict(ok), details, details, f"homological {level}-connectivity: {ok}"


def _fixed_points(spec, generators):
    H = chessboard.Subgroup.from_generators(spec.n, generators)
    fixed = chessboard.fixed_subcomplex(spec, H)
    details = {
        "order": H.order,
        "orbits": [list(o) for o in H.orbits],
        "fixed_complex": fixed.to_json(),
        "dimension": fixed.dimension,
    }
    summary = f"fixed subcomplex: dimension {fixed.dimension}, {len(fixed.facets)} facets"
    return "verified", details, fixed.to_json(), summary


def _search(instance, constraint_count):
    result = geometry.search_tverberg(instance, constraint_count=constraint_count)
    if isinstance(result, geometry.Exhausted):
        verdict = "exhausted" if instance.mode == "free" else "refuted"
        details = {
            "candidates_examined": result.candidates_examined,
            "mode": instance.mode,
            "stats": result.stats,
        }
        return verdict, details, None, f"exhausted after {result.candidates_examined} candidates"
    details = {"faces": [list(f) for f in result.faces], "mode": instance.mode, "stats": result.stats}
    if result.policy:
        details["policy"] = result.policy
    witness = [geometry.format_rational(c) for c in result.witness]
    return "found", details, result.to_json(), f"found solution with witness {witness}"


def _lift(config, solution, r):
    lifted = geometry.lift_to_vertex_disjoint(config, solution, r)
    certificate = {
        "config": lifted.config.to_json(),
        "solution": lifted.solution.to_json(),
        "projection": {str(k): v for k, v in sorted(lifted.projection.items())},
    }
    details = {"lifted_faces": [list(f) for f in lifted.solution.faces]}
    summary = f"lifted to {len(lifted.solution.faces)} pairwise disjoint faces"
    return "verified", details, certificate, summary


def _example_a(p, k, d, epsilon, seed):
    config, instance = geometry.build_example_a(p, k, d, epsilon, seed)
    result = geometry.search_tverberg(instance)
    if isinstance(result, geometry.Exhausted):
        details = {"candidates_examined": result.candidates_examined, "stats": result.stats}
        return "refuted", details, None, "example configuration unexpectedly exhausted"
    certificate = {"config": config.to_json(), "solution": result.to_json()}
    details = {
        "witness": [geometry.format_rational(c) for c in result.witness],
        "stats": result.stats,
    }
    return "found", details, certificate, f"witness: {details['witness']}"


def _unavoidable(V, r, avoid_set, K):
    if avoid_set is not None:
        verdict = constraints.check_face_avoidance_unavoidable(V, avoid_set, r)
    else:
        verdict = constraints.is_unavoidable(K, r, V)
    certificate = verdict.to_json()
    details = certificate if verdict.stats is None else {**certificate, "stats": verdict.stats}
    return _verdict(verdict.unavoidable), details, certificate, f"unavoidable: {verdict.unavoidable}"


def _constrain(K, avoid_sets):
    constrained = constraints.constrain_complex(K, avoid_sets)
    details = {"facets": len(constrained.facets), "dimension": constrained.dimension}
    summary = f"constrained complex: {details['facets']} facets"
    return "verified", details, constrained.to_json(), summary


# ---------------------------------------------------------------- the table


class Command(NamedTuple):
    words: tuple  # ("tverberg", "search"): a group word and an action, or one word
    help: str  # help of the first word
    args: tuple  # (flag, add_argument keyword arguments) pairs; every row also takes --out
    load: Callable
    run: Callable
    echoes_seed: bool = False


def _required_ints(*names) -> tuple:
    return tuple((f"--{name}", {"type": int, "required": True}) for name in names)


BOARD_ARGS = (
    ("--cols", {"required": True, "help": "comma-separated column caps"}),
    ("--rows", {"type": int, "default": None, "help": "row count (default sum(cols)+1)"}),
)
JSON_ARGS = (("--json", {"required": True}),)

COMMANDS = (
    Command(("chessboard", "build"), "build or audit a chessboard complex", BOARD_ARGS,
            _load_board, _chessboard_build),
    Command(("chessboard", "check"), "build or audit a chessboard complex", BOARD_ARGS,
            _load_board, _chessboard_check),
    Command(("orient",), "fundamental class of a pseudomanifold-family complex", BOARD_ARGS,
            _load_board, _orient),
    Command(("collapse", "degree"), "column-collapse maps",
            (("--caps", {"required": True, "help": "source column caps"}),
             ("--theta", {"required": True, "help": "comma-separated theta values, 1-based"})),
            _load_collapse, _collapse_degree),
    Command(("valuation",), "ord_p(m!)", _required_ints("p", "m"),
            _load_flags("p", "m"), _valuation),
    Command(("obstruction",), "degree mod p and fixed-point dimensions",
            _required_ints("p", "k", "d"), _load_flags("p", "k", "d"), _obstruction),
    Command(("homology",), "reduced integral homology of a complex", JSON_ARGS,
            _load_complex, _homology),
    Command(("connectivity",), "homological connectivity check",
            JSON_ARGS + _required_ints("level"), _load_connectivity, _connectivity),
    Command(("fixed-points",), "fixed subcomplex of a row subgroup", JSON_ARGS,
            _load_fixed_points, _fixed_points),
    Command(("tverberg", "search"), "rainbow Tverberg partition search", JSON_ARGS,
            _load_tverberg, _search, echoes_seed=True),
    Command(("balanced", "search"), "balanced search with dimension caps", JSON_ARGS,
            _load_balanced, _search, echoes_seed=True),
    Command(("lift",), "lift a solution to pairwise vertex-disjoint faces", JSON_ARGS,
            _load_lift, _lift),
    Command(("example-a",), "clustered simplex-plus-barycenter example",
            _required_ints("p", "k", "d") + (("--epsilon", {"default": "0"}),),
            _load_example_a, _example_a, echoes_seed=True),
    Command(("unavoidable", "check"), "unavoidability of a complex", JSON_ARGS,
            _load_unavoidable, _unavoidable),
    Command(("constrain",), "full subcomplex avoiding given vertex sets", JSON_ARGS,
            _load_constrain, _constrain),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the whole table, built once per process.

    Every call returns the same parser; ``parse_args`` reads it and writes
    only the namespace it returns, so no state passes from one call to the
    next.
    """
    parser = argparse.ArgumentParser(
        prog="tverrook",
        description="Chessboard pseudomanifolds, collapse degrees, and Tverberg partition search.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness (printed)")
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict = {}
    for command in COMMANDS:
        word, *action = command.words
        if action:
            if word not in groups:
                group = sub.add_parser(word, help=command.help)
                groups[word] = group.add_subparsers(dest="action", required=True)
            p = groups[word].add_parser(action[0])
        else:
            p = sub.add_parser(word, help=command.help)
        for flag, kwargs in command.args:
            p.add_argument(flag, **kwargs)
        p.add_argument("--out")
        p.set_defaults(row=command)
    return parser


def run_command(command: Command, args) -> int:
    """Load, run and report one row; exceptions other than input errors pass."""
    name = " ".join(command.words)
    try:
        payload, loaded = command.load(args)
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed {name} input: {type(exc).__name__}: {exc}") from exc
    report = {
        "subcommand": name,
        "input_digest": _digest(payload),
        "certificate_path": None,
        "seed": args.seed if command.echoes_seed else None,
    }
    start = time.monotonic()
    verdict, details, certificate, summary = command.run(*loaded)
    report["verdict"] = verdict
    report["details"] = details
    if certificate is not None and verdict in ("verified", "found"):
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    json.dump(certificate, fh, indent=2)
            except OSError as exc:
                raise InputError(f"cannot write certificate {args.out}: {exc}") from exc
            report["certificate_path"] = args.out
        else:
            report["certificate"] = certificate
    report["elapsed_seconds"] = round(time.monotonic() - start, 6)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(summary, file=sys.stderr)
    return VERDICT_EXIT[verdict]


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return run_command(args.row, args)
    except InputError as exc:
        return _error(exc, "input error", EXIT_INPUT)
    except ResourceLimitError as exc:
        return _error(exc, "resource guard", EXIT_RESOURCE)


def _error(exc: Exception, label: str, code: int) -> int:
    print(json.dumps({"verdict": "error", "message": str(exc)}))
    print(f"{label}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
