"""No settable value without a caller that sets it.

A parameter default or dataclass-field default in ``src/allab`` that no call
in ``src/``, ``tests/`` or ``perfbench/`` ever passes has one value in use:
it is a constant, and as a setting it only multiplies the configurations
that tests and benchmarks would have to cover.  This test parses the code
and lists every such value.

A value counts as set when some call passes it by keyword, by position or
through a ``*``/``**`` argument.  Calls are matched to definitions by name
alone (``obj.meth(...)`` matches every method ``meth``; calling a class
matches its dataclass fields or its ``__init__``), which errs toward "set".
Left out are calls through a module bound by ``import`` from outside allab,
such as ``np.linspace`` or ``jsonschema.validate``.  ``dataclasses.replace``
sets the fields it names by keyword; its ``**`` argument names no class and
sets nothing here.  Lambdas are not scanned.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CALL_DIRS = ("src", "tests", "perfbench")


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


def _has_default(value):
    if isinstance(value, ast.Call) and _name(value.func) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def _settable(tree, module):
    """(dotted name, callee, positional index or None, is a dataclass field)
    for every parameter and dataclass field with a default; a value reached
    through two callees (a class and its ``__init__``) appears once for each."""
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
                values = [(a.arg, first + i - bound) for i, a in enumerate(with_default)]
                values += [
                    (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                ]
                out.extend(
                    (f"{qual}.{name}", c, index, False)
                    for name, index in values for c in callees
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
                        (f"{qual}.{s.target.id}", child.name, i, True)
                        for i, s in enumerate(fields) if _has_default(s.value)
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
    """callee name -> list of (positional count, keywords, has ** argument)."""
    calls = {}
    for d in CALL_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = _parse(path)
            foreign = _foreign_modules(tree)
            for node in ast.walk(tree):
                callee = _name(node.func) if isinstance(node, ast.Call) else None
                if callee is None or _root(node.func) in foreign:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                double = any(k.arg is None for k in node.keywords)
                if callee == "replace":
                    calls.setdefault("<replace>", []).append((0, keywords, False))
                positional = float("inf") if starred else len(node.args)
                calls.setdefault(callee, []).append((positional, keywords, double))
    return calls


def unset_values():
    """Dotted names ("module.Owner.name") of the values no call sets."""
    calls = _calls()
    by_value = {}
    for path in sorted((ROOT / "src" / "allab").glob("*.py")):
        for key, callee, index, is_field in _settable(_parse(path), path.stem):
            name = key.rsplit(".", 1)[1]
            hit = any(
                name in keywords or double or (index is not None and index < positional)
                for positional, keywords, double in calls.get(callee, ())
            ) or is_field and any(name in kw for _, kw, _ in calls.get("<replace>", ()))
            by_value[key] = by_value.get(key, False) or hit
    return sorted(k for k, hit in by_value.items() if not hit)


def test_every_default_is_set_by_some_call():
    unset = unset_values()
    assert unset == [], "no call sets these; make them constants:\n" + "\n".join(unset)
