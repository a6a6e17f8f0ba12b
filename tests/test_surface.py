"""No settable value without a caller that sets it.

A parameter default or dataclass-field default in ``src/allab`` that no
caller ever passes has one value in use: it is a constant, and as a setting
it only multiplies the configurations that tests and benchmarks would have
to cover.  This test parses the code and lists every such value.

Tests do not make a value a setting of the program.  So for a function or
class that some call in ``src/`` or ``perfbench/`` calls, only those calls
count; a function that only tests call (library API such as
``estimate_splitting`` or ``check_periodicity``) counts the calls in
``tests/`` too.  ``EXEMPT`` names the values the benchmark's tracer binds by
name, each with the change that removes it.

A value counts as set when some call passes it by keyword, by position or
through a ``*``/``**`` argument.  Calls are matched to definitions by name
alone (``obj.meth(...)`` matches every method ``meth``; calling a class
matches its dataclass fields or its ``__init__``), which errs toward "set".
Left out are calls through a module bound by ``import`` from outside allab,
such as ``np.linspace`` or ``jsonschema.validate``.  ``dataclasses.replace``
sets the fields it names by keyword; its ``**`` argument names no class and
sets nothing here.  Lambdas are not scanned.

A value that every call setting it sets to a literal equal to its own
literal default has one value in use too, and the second test lists those.

The last tests list every name that a module under ``src/`` or ``tests/``
imports and never reads, ``from __future__ import annotations`` aside, and
every function in ``src/`` that reads the arguments of an expression
(``.left``, ``.right`` or ``.arg``) other than ``expr.walk``, which every
reader of a tree goes through.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CALL_DIRS = ("src", "tests", "perfbench")
OUTSIDE_TESTS = ("src", "perfbench")

# values no call outside the tests sets, kept because perfbench/tracer.py
# binds them by name
EXEMPT = {
    "contact.al_check.points":
        "the grid_points hook reads it; goes with the counter fixes of ROADMAP item 6",
    "foliation.cone_separation.search":
        "the angles hook reads search.grid_n; goes with cone_separation, ROADMAP item 14",
    "foliation.SlopeSearch.max_denominator":
        "a field of cone_separation's search; goes with it, ROADMAP item 14",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(cls):
    return any(
        _name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in cls.decorator_list
    )


def _default(value):
    """The default node of a dataclass field's value, or None for none; a
    ``default_factory`` is a non-literal default."""
    if isinstance(value, ast.Call) and _name(value.func) == "field":
        return next(
            (k.value for k in value.keywords if k.arg in ("default", "default_factory")), None
        )
    return value


_NOT_LITERAL = object()


def _literal(node):
    """The value of a literal node (numbers, strings, tuples, ``-1``), or
    _NOT_LITERAL for anything else, such as a name, a call or None."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return _NOT_LITERAL


def _same_literal(a, b):
    return a is not _NOT_LITERAL and type(a) is type(b) and a == b


def _settable(tree, module):
    """(dotted name, callee, positional index or None, is a dataclass field,
    default node) for every parameter and dataclass field with a default; a
    value reached through two callees (a class and its ``__init__``) appears
    once for each."""
    out = []

    def visit(node, owner, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{owner}.{child.name}"
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(_name(d) == "staticmethod" for d in child.decorator_list)
                bound = 1 if in_class and not static else 0  # self or cls
                callees = [child.name]
                if in_class and child.name == "__init__":
                    callees.append(owner.rsplit(".", 1)[-1])
                with_default = positional[len(positional) - len(args.defaults):]
                first = len(positional) - len(with_default)
                values = [
                    (a.arg, first + i - bound, d)
                    for i, (a, d) in enumerate(zip(with_default, args.defaults))
                ]
                values += [
                    (a.arg, None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                ]
                out.extend(
                    (f"{qual}.{name}", c, index, False, d)
                    for name, index, d in values for c in callees
                )
                visit(child, qual, False)
            elif isinstance(child, ast.ClassDef):
                qual = f"{owner}.{child.name}"
                if _is_dataclass(child):
                    fields = [
                        s for s in child.body
                        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                    ]
                    out.extend(
                        (f"{qual}.{s.target.id}", child.name, i, True, _default(s.value))
                        for i, s in enumerate(fields) if _default(s.value) is not None
                    )
                visit(child, qual, True)

    visit(tree, module, False)
    return out


def _foreign_modules(tree):
    """Names bound by ``import`` statements of modules outside allab."""
    return {
        a.asname or a.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name.split(".")[0] != "allab"
    }


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _calls():
    """callee name -> list of (positional argument nodes, keyword argument
    nodes by name, has ** argument, is outside the tests); a ``*`` argument
    stands for every position from its own on."""
    calls = {}
    for d in CALL_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            # perfbench's own tests are tests too
            outside = d in OUTSIDE_TESTS and not path.name.startswith("test_")
            tree = _parse(path)
            foreign = _foreign_modules(tree)
            for node in ast.walk(tree):
                callee = _name(node.func) if isinstance(node, ast.Call) else None
                if callee is None or _root(node.func) in foreign:
                    continue
                keywords = {k.arg: k.value for k in node.keywords if k.arg is not None}
                double = any(k.arg is None for k in node.keywords)
                if callee == "replace":
                    calls.setdefault("<replace>", []).append(((), keywords, False, outside))
                calls.setdefault(callee, []).append((node.args, keywords, double, outside))
    return calls


def _counted(calls, callee):
    """The calls of ``callee`` that count: those outside the tests, or every
    call when there are none."""
    found = calls.get(callee, [])
    return [c for c in found if c[3]] or found


def _setters(calls, name, index):
    """The literal value each of ``calls`` sets the value to, or
    _NOT_LITERAL where it sets it some other way."""
    for args, keywords, double, _ in calls:
        if name in keywords:
            yield _literal(keywords[name])
        elif index is not None and any(
            isinstance(a, ast.Starred) for a in args[: index + 1]
        ):
            yield _NOT_LITERAL
        elif index is not None and index < len(args):
            yield _literal(args[index])
        elif double:
            yield _NOT_LITERAL


def _scan():
    """dotted name ("module.Owner.name") -> (literal default or
    _NOT_LITERAL, the values the calls that set it pass)."""
    calls = _calls()
    by_value = {}
    for path in sorted((ROOT / "src" / "allab").glob("*.py")):
        for key, callee, index, is_field, default in _settable(_parse(path), path.stem):
            name = key.rsplit(".", 1)[1]
            counted = _counted(calls, callee)
            passed = list(_setters(counted, name, index))
            if is_field:
                # dataclasses.replace names no class: it counts as the
                # class's own calls do, outside the tests or not
                replaced = calls.get("<replace>", [])
                if any(c[3] for c in counted):
                    replaced = [c for c in replaced if c[3]]
                passed += [_literal(kw[name]) for _, kw, _, _ in replaced if name in kw]
            by_value.setdefault(key, (_literal(default), []))[1].extend(passed)
    return by_value


def unset_values():
    """Dotted names of the values no call sets."""
    return sorted(k for k, (_, passed) in _scan().items() if not passed)


def default_only_values():
    """Dotted names of the values that every call setting them sets to a
    literal equal to their own literal default."""
    return sorted(
        k for k, (default, passed) in _scan().items()
        if passed and all(_same_literal(p, default) for p in passed)
    )


def test_every_default_is_set_by_some_call():
    unset = [k for k in unset_values() if k not in EXEMPT]
    assert unset == [], "no call sets these; make them constants:\n" + "\n".join(unset)


def test_some_call_sets_every_default_to_another_value():
    same = [k for k in default_only_values() if k not in EXEMPT]
    assert same == [], (
        "every call sets these to their default; make them constants:\n" + "\n".join(same)
    )


def test_every_exemption_is_still_needed():
    flagged = set(unset_values()) | set(default_only_values())
    stale = sorted(set(EXEMPT) - flagged)
    assert stale == [], "these are set or gone; drop their exemptions:\n" + "\n".join(stale)


def test_every_import_is_read():
    # ``import a.b`` binds a
    unread = []
    for d in ("src", "tests"):
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = _parse(path)
            read = {
                n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
            }
            unread.extend(
                f"{path.relative_to(ROOT)}:{node.lineno}: {a.asname or a.name.split('.')[0]}"
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for a in node.names
                if (a.asname or a.name.split(".")[0]) not in read
            )
    assert unread == [], "imported and never read; drop them:\n" + "\n".join(unread)


# functions that may read an expression's arguments, each with its reason
CHILD_READERS = {
    "expr.walk": "the one walk over a tree",
    "expr.neg": "a builder, not a walk: -(-a) is a, one level down",
}


def _child_reads(tree, module):
    """The dotted name of the innermost function around each read of
    ``.left``, ``.right`` or ``.arg``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Attribute) and child.attr in ("left", "right", "arg"):
                found.append(owner)
            visit(child, owner)

    visit(tree, module)
    return found


def test_only_the_walk_reads_the_arguments_of_a_tree():
    readers = {
        name for path in sorted((ROOT / "src" / "allab").glob("*.py"))
        for name in _child_reads(_parse(path), path.stem)
    }
    assert "expr.walk" in readers
    assert sorted(readers - set(CHILD_READERS)) == [], "read the tree through expr.walk"
