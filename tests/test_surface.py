"""Every function, class and method of `src/tverrook` is reached from the CLI.

An AST pass starts from `cli.main` and from the module-level statements of
each module (the `COMMANDS` table and the other constants run on import)
and marks a def live once a live body names it, as a bare name or as an
attribute.  A name that two defs share makes both live, so the pass may
call a dead def live but never the reverse.  A method is live only in a
live class; a dunder method of a live class is called implicitly and is
live with it.  The body of a live def includes its nested functions, its
decorators and, for a class, its fields.  Imports name nothing, so an
export in `__init__` keeps nothing alive.  Every parameter of a live def,
and of the functions nested in it, must be read in its body, and every
field of a live NamedTuple must be read as an attribute somewhere in the
package.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "tverrook"


def _named(nodes) -> set:
    """Every identifier the nodes name as an `ast.Name` or an attribute."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _defs_and_roots():
    """({qualified name: (simple name, class or None, body nodes)}, root nodes)."""
    defs, roots = {}, []
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, kinds):
                if module != "__init__" and not isinstance(node, (ast.Import, ast.ImportFrom)):
                    roots.append(node)
                continue
            qualified = f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                fields = [n for n in node.body if not isinstance(n, kinds)]
                defs[qualified] = (node.name, None, node.decorator_list + node.bases + fields)
                for method in node.body:
                    if isinstance(method, kinds):
                        defs[f"{qualified}.{method.name}"] = (method.name, qualified, [method])
            else:
                defs[qualified] = (node.name, None, [node])
    return defs, roots


def _live_defs():
    """(the defs of `_defs_and_roots`, the qualified names of the live ones)."""
    defs, roots = _defs_and_roots()
    live = {"cli.main"}
    named = _named(roots) | _named(defs["cli.main"][2])
    grew = True
    while grew:
        grew = False
        for qualified, (name, owner, body) in defs.items():
            if qualified in live:
                continue
            if owner is None:
                reached = name in named
            else:
                dunder = name.startswith("__") and name.endswith("__")
                reached = owner in live and (dunder or name in named)
            if reached:
                live.add(qualified)
                named |= _named(body)
                grew = True
    return defs, live


def unreached() -> list:
    defs, live = _live_defs()
    return sorted(set(defs) - live)


def unread_parameters() -> list:
    """`qualified name:function(parameter)` for every parameter, other than
    `self` and `cls`, that a live def or a function nested in it never reads."""
    defs, live = _live_defs()
    unread = []
    for qualified in sorted(live):
        for node in defs[qualified][2]:
            for fn in ast.walk(node):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                a = fn.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                params += [p.arg for p in (a.vararg, a.kwarg) if p]
                read = {
                    n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                unread += [
                    f"{qualified}:{fn.name}({p})"
                    for p in params
                    if p not in read and p not in ("self", "cls")
                ]
    return unread


def _fields_and_reads():
    """({qualified name: field names} of each NamedTuple class, every
    attribute that the package reads)."""
    fields, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and "NamedTuple" in _named(node.bases):
                fields[f"{path.stem}.{node.name}"] = [
                    n.target.id for n in node.body if isinstance(n, ast.AnnAssign)
                ]
    return fields, read


def unread_fields() -> list:
    """`qualified name.field` for every field of a live NamedTuple class that
    no attribute of the package reads."""
    _, live = _live_defs()
    fields, read = _fields_and_reads()
    return [
        f"{qualified}.{field}"
        for qualified in sorted(live & set(fields))
        for field in fields[qualified]
        if field not in read
    ]


def test_the_pass_sees_the_whole_package():
    defs, roots = _defs_and_roots()
    assert {"cli.main", "cli.Command", "homology.eliminate_units"} <= set(defs)
    assert "COMMANDS" in _named(roots)
    assert _fields_and_reads()[0]["chessboard.Subgroup"] == ["order", "orbits"]


def test_every_def_is_reached_from_the_cli():
    assert unreached() == []


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_every_field_is_read():
    assert unread_fields() == []
