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

``parse_argv`` reads the global flags before the command words and looks
the words up in ``ROWS``.  argparse is the one grammar of the row's flags
(``_row_parser``, built from the row's ``args``); ``_parse_row`` reads its
exact ``--flag value`` and ``--flag=value`` forms by hand and hands any
other argv to argparse, which parses it or prints help or a usage error.
argparse is imported only when such a parser is built.
``run_command`` runs the selected row: digest, timing, the ``--out``
certificate file, the JSON report on stdout, the summary on stderr and the
exit code.  ``main`` turns input errors and tripped guards into error
reports.  Reports, error reports and certificate files are one line of
sorted-key JSON each (``_encode``).  Exit codes: 0 verified/found, 1
refuted, 2 exhausted (free mode), 3 input error, 4 resource guard tripped.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import chessboard, constraints, geometry, homology, maps, simplicial
from .errors import InputError, ResourceLimitError, json_int

# hashlib loads OpenSSL's libcrypto, about 3.6 MB of the process; the
# interpreter's own SHA-256 module gives the same digest without it.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

if TYPE_CHECKING:
    import argparse

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


# One line of sorted-key JSON.  Without ``indent`` CPython encodes in C.
_encode = json.JSONEncoder(sort_keys=True).encode


def _digest(payload) -> str:
    return sha256(_encode(payload).encode()).hexdigest()


def _caps_list(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    # the decoder raises RecursionError on input nested too deeply
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
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
    # the source board's size guard runs before any factorial is formed
    source = chessboard.one_row_spec(caps)
    return {"caps": list(caps), "theta": list(theta_vals)}, (source, theta)


def _load_complex(args):
    data = _load_json(args.json)
    return data, (simplicial.Complex.from_json(data),)


def _load_connectivity(args):
    data = _load_json(args.json)
    return {"complex": data, "level": args.level}, (simplicial.Complex.from_json(data), args.level)


def _load_fixed_points(args):
    data = _load_json(args.json)
    spec = chessboard.ChessboardSpec.from_json(data["spec"])
    generators = [
        chessboard.RowPermutation(tuple(json_int(v, "generator entry") for v in g))
        for g in data["generators"]
    ]
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
        json_int(data.get("constraint_count", 0), "constraint_count"),
    )


def _load_tverberg(args):
    data = _load_json(args.json)
    return data, (_instance_from_json(data),)


def _load_balanced(args):
    data = _load_json(args.json)
    defaulted = {"mode": "balanced-1.6", "disjointness": "vertex-disjoint", **data}
    return data, (_instance_from_json(defaulted),)


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
    report = rep.to_json()
    details = {"spec": spec.to_json(), "report": report}
    return verdict, details, report, f"pseudomanifold check: {verdict}"


def _orient(spec):
    tau = chessboard.orient(spec, chessboard.build_chessboard(spec))
    boundary_zero = chessboard.verify_orientation(tau)
    # tau is keyed by K.facets, which are lex sorted
    certificate = {"chain": [{"facet": list(f), "sign": s} for f, s in tau.items()]}
    details = {"facets": len(tau), "boundary_zero": boundary_zero}
    summary = f"orientation on {len(tau)} facets, boundary zero: {boundary_zero}"
    return _verdict(boundary_zero), details, certificate, summary


def _collapse_degree(source, theta):
    target_caps, formula, signs = maps.preimage_signs(theta, source)
    counting = sum(signs)
    verdict = _verdict(formula == counting)
    certificate = {
        "degree_formula": str(formula),
        "degree_by_counting": str(counting),
        "target_caps": list(target_caps),
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
    report = rep.to_json()
    return _verdict(rep.verdict), report, report, "\n".join(lines)


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


def _search(instance):
    solution, stats = geometry.search_tverberg(instance)
    if solution is None:
        verdict = "exhausted" if instance.mode == "free" else "refuted"
        examined = stats["lp_calls"] + stats["pruned_farkas"]
        details = {"candidates_examined": examined, "mode": instance.mode, "stats": stats}
        return verdict, details, None, f"exhausted after {examined} candidates"
    certificate = solution.to_json()
    details = {"faces": certificate["faces"], "mode": instance.mode, "stats": stats}
    if solution.policy:
        details["policy"] = solution.policy
    return "found", details, certificate, f"found solution with witness {certificate['witness']}"


def _lift(config, solution, r):
    lifted = geometry.lift_to_vertex_disjoint(config, solution, r)
    certificate = {
        "config": lifted.config.to_json(),
        "solution": lifted.solution.to_json(),
        "projection": {str(k): v for k, v in sorted(lifted.projection.items())},
    }
    details = {"lifted_faces": certificate["solution"]["faces"]}
    summary = f"lifted to {len(lifted.solution.faces)} pairwise disjoint faces"
    return "verified", details, certificate, summary


def _example_a(p, k, d, epsilon, seed):
    config, instance = geometry.build_example_a(p, k, d, epsilon, seed)
    solution, stats = geometry.search_tverberg(instance)
    if solution is None:
        details = {"candidates_examined": stats["lp_calls"] + stats["pruned_farkas"], "stats": stats}
        return "refuted", details, None, "example configuration unexpectedly exhausted"
    certificate = {"config": config.to_json(), "solution": solution.to_json()}
    details = {"witness": certificate["solution"]["witness"], "stats": stats}
    return "found", details, certificate, f"witness: {details['witness']}"


def _unavoidable(V, r, avoid_set, K):
    if avoid_set is not None:
        verdict = constraints.check_face_avoidance_unavoidable(V, avoid_set, r)
    else:
        verdict = constraints.is_unavoidable(K, r, V)
    certificate = verdict.to_json()
    details = {**certificate, "stats": verdict.stats}
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
    # (flag, keyword arguments) pairs, keywords among type (int), required,
    # default and help; every row also takes --out
    args: tuple
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


ROWS = {command.words: command for command in COMMANDS}
GROUPS = {words[0] for words in ROWS if len(words) > 1}


def _is_help(token: str) -> bool:
    """-h, --help, or an abbreviation of --help as argparse accepts it."""
    return token == "-h" or (len(token) > 2 and "--help".startswith(token))


@functools.cache
def _menu(group: str = "") -> argparse.ArgumentParser:
    """Help and usage errors of the global flags, or of one command group.

    ``parse_argv`` reads the global flags by hand; this parser reads only a
    spaced ``--seed`` value that starts with ``-``.
    """
    import argparse

    rows = [c for c in COMMANDS if not group or c.words[0] == group]
    listing = "\n".join(f"  {' '.join(c.words):<19} {c.help}" for c in rows)
    parser = argparse.ArgumentParser(
        prog=f"tverrook {group}".rstrip(),
        usage=f"%(prog)s [-h] {'ACTION' if group else '[--seed SEED] COMMAND'} ...",
        description=None if group else (
            "Chessboard pseudomanifolds, collapse degrees, and Tverberg partition search."
        ),
        epilog=f"commands:\n{listing}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    if not group:
        parser.add_argument("--seed", type=int, default=0, help="seed for all randomness (printed)")
    return parser


OUT_ARG = ("--out", {})  # every row's last flag


@functools.cache
def _row_parser(words: tuple) -> argparse.ArgumentParser:
    """The argparse parser of one row, built once per process.

    It parses every argv of the row that ``_parse_row`` does not read by
    hand, and so prints the row's help and its usage errors.
    """
    import argparse

    parser = argparse.ArgumentParser(prog=f"tverrook {' '.join(words)}")
    for flag, kwargs in ROWS[words].args + (OUT_ARG,):
        parser.add_argument(flag, **kwargs)
    return parser


@functools.cache
def _row_flags(words: tuple) -> tuple:
    """({flag: (dest, int or None)}, {dest: default}, dests of required flags)."""
    args = ROWS[words].args + (OUT_ARG,)
    flags = {flag: (flag[2:].replace("-", "_"), kw.get("type")) for flag, kw in args}
    defaults = {flags[flag][0]: kw.get("default") for flag, kw in args}
    return flags, defaults, tuple(flags[flag][0] for flag, kw in args if kw.get("required"))


def _parse_row(words: tuple, rest: list, seed: int) -> SimpleNamespace:
    """The namespace of a row's flags, with the attributes argparse gives it.

    Exact flags are read by hand: ``--flag value``, with a value that does
    not start with ``-``, and ``--flag=value``; a repeated flag keeps its
    last value.  Any other token, a bad int, a missing value or a missing
    required flag hands all of ``rest`` to the row's argparse parser, which
    returns the namespace or exits with help or a usage error.
    """
    flags, defaults, required = _row_flags(words)
    values = dict(defaults)
    i, n = 0, len(rest)
    while i < n:
        flag, eq, value = rest[i].partition("=")
        if flag not in flags:
            break
        if not eq:
            i += 1
            if i == n or rest[i][:1] == "-":
                break
            value = rest[i]
        dest, convert = flags[flag]
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                break
        values[dest] = value
        i += 1
    else:
        # hand-read values are never None, so None marks a missing flag
        if all(values[dest] is not None for dest in required):
            return SimpleNamespace(seed=seed, **values)
    parser = _row_parser(words)
    args = parser.parse_args(rest, SimpleNamespace(seed=seed))
    # argparse 3.11 strips "--" from an explicit "--flag=--" and stores []
    for flag, (dest, _) in flags.items():
        if isinstance(getattr(args, dest), list):
            parser.error(f"argument {flag}: expected one argument")
    return args


def parse_argv(argv: list) -> tuple:
    """(row, namespace) of argv; usage errors and help exit as argparse does.

    The tokens before the command words are global flags: ``--seed N``,
    ``--seed=N`` or an abbreviation such as ``--se N``, and ``-h``/``--help``.
    A spaced ``--seed`` value that starts with ``-`` (``--seed -3``,
    ``--seed --help``) is read by argparse.  The rest are the row's flags,
    read by ``_parse_row``.
    """
    seed, i = 0, 0
    while i < len(argv) and argv[i].startswith("-"):
        token = argv[i]
        if _is_help(token):
            _menu().print_help()
            raise SystemExit(0)
        name, eq, value = token.partition("=")
        if len(name) < 3 or not "--seed".startswith(name):
            _menu().error(f"unrecognized arguments: {token}")
        if not eq:
            i += 1
            if i == len(argv):
                _menu().error("argument --seed: expected one argument")
            value = argv[i]
            if value.startswith("-"):
                value = _menu().parse_args([token, value]).seed
        try:
            seed = int(value)
        except ValueError:
            _menu().error(f"argument --seed: invalid int value: {value!r}")
        i += 1
    words = tuple(argv[i:i + 2])
    command = ROWS.get(words[:1]) or ROWS.get(words)
    if command is None:
        if not words:
            _menu().error("a command is required")
        if words[0] not in GROUPS:
            _menu().error(f"invalid command: {words[0]!r}")
        if len(words) > 1 and _is_help(words[1]):
            _menu(words[0]).print_help()
            raise SystemExit(0)
        _menu(words[0]).error(f"invalid action: {words[1]!r}" if len(words) > 1 else "an action is required")
    return command, _parse_row(command.words, argv[i + len(command.words):], seed)


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
                    fh.write(_encode(certificate) + "\n")
            except OSError as exc:
                raise InputError(f"cannot write certificate {args.out}: {exc}") from exc
            report["certificate_path"] = args.out
        else:
            report["certificate"] = certificate
    report["elapsed_seconds"] = round(time.monotonic() - start, 6)
    print(_encode(report))
    print(summary, file=sys.stderr)
    return VERDICT_EXIT[verdict]


def main(argv=None) -> int:
    try:
        command, args = parse_argv(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return run_command(command, args)
    except InputError as exc:
        return _error(exc, "input error", EXIT_INPUT)
    except ResourceLimitError as exc:
        return _error(exc, "resource guard", EXIT_RESOURCE)


def _error(exc: Exception, label: str, code: int) -> int:
    print(_encode({"verdict": "error", "message": str(exc)}))
    print(f"{label}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
