"""Count the settable values of the tree and list the ones with one value.

A *settable value* is a field of a ``*Config`` class or a parameter
with a default, anywhere under ``src/repro``.  The census reads every
``.py`` file under ``src``, ``tests``, ``examples``, ``perfledger`` and
``scripts`` with ``ast`` and collects who sets what:

* a config field is set by ``XConfig(field=...)`` (also through a
  ``**`` of a ``dict(...)`` / dict literal in the same function, or of
  the ``**kwargs`` of a function whose callers pass ``field=...``), by
  ``dataclasses.replace(x, field=...)``, by a factory call
  ``quick_*/full_*/scale_*(field=...)``, or by assigning
  ``<config>.field``;
* a defaulted parameter is passed by any call whose callee name matches
  the function (the class name for ``__init__``) and that names it or
  reaches its position; a call with ``*args`` / ``**kwargs`` passes all,
  and a ``super().__init__(...)`` inside ``class C(B)`` is a call of
  ``B``.

Name matching is deliberately loose, so a listed name is a candidate:
confirm it with a search before deleting it.  Run from the repo root::

    python scripts/knob_census.py
"""

from __future__ import annotations

import ast
import pathlib

ROOTS = ("src", "tests", "examples", "perfledger", "scripts")
CONFIG_DIR = pathlib.Path("src/repro")
FACTORY_PREFIXES = ("quick_", "full_", "scale_")


def _files(roots=ROOTS):
    for root in roots:
        for path in sorted(pathlib.Path(root).rglob("*.py")):
            if "__pycache__" not in path.parts:
                yield path, ast.parse(path.read_text(), str(path))


def _callee(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def calls(tree: ast.AST) -> list[tuple[str, ast.Call]]:
    """``(callee name, call)`` for every call in ``tree`` with a name; a
    ``super().__init__(...)`` inside ``class C(B)`` is named ``B``."""
    supers: dict[int, str] = {}
    for cls in ast.walk(tree):     # outer classes first, inner override
        if not (isinstance(cls, ast.ClassDef) and cls.bases):
            continue
        base = cls.bases[0]
        base = base.id if isinstance(base, ast.Name) else getattr(
            base, "attr", None)
        for node in ast.walk(cls):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__init__"
                    and isinstance(node.func.value, ast.Call)
                    and _callee(node.func.value) == "super"):
                supers[id(node)] = base
    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = supers.get(id(node)) or _callee(node)
            if name is not None:
                named.append((name, node))
    return named


def _same(a: ast.expr, b: ast.expr | None) -> bool:
    if b is None:
        return False
    try:
        return ast.literal_eval(a) == ast.literal_eval(b)
    except ValueError:
        return ast.dump(a) == ast.dump(b)


def config_fields() -> dict[str, dict[str, ast.expr | None]]:
    """``{class: {field: default expression}}`` for every ``*Config``
    class (``None``: a ``default_factory`` or no default)."""
    configs = {}
    for path in sorted(CONFIG_DIR.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.ClassDef)
                    and node.name.endswith("Config")):
                continue
            fields = {}
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    value = stmt.value
                    if isinstance(value, ast.Call):
                        value = None
                    fields[stmt.target.id] = value
            configs[node.name] = fields
    return configs


def _dict_keys(func: ast.AST) -> list[tuple[str, ast.expr]]:
    """Keyword pairs of every ``dict(...)`` call and dict literal in
    ``func`` — what a ``**name`` splat inside it may carry."""
    pairs = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and _callee(node) == "dict":
            pairs += [(k.arg, k.value) for k in node.keywords if k.arg]
        elif isinstance(node, ast.Dict):
            pairs += [(k.value, v) for k, v in zip(node.keys, node.values)
                      if isinstance(k, ast.Constant)
                      and isinstance(k.value, str)]
    return pairs


def config_setters(configs) -> dict[str, list[tuple[str, ast.expr]]]:
    """``{class: [(field, value expression), ...]}`` over every root."""
    fields_of = {name: set(fields) for name, fields in configs.items()}
    setters: dict[str, list] = {name: [] for name in configs}
    trees = list(_files())
    # Functions taking ``**kwargs`` that build a config from them.
    forwarders: dict[str, str] = {}
    for _path, tree in trees:
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call)
                        and _callee(node) in configs):
                    continue
                name = _callee(node)
                if func.args.kwarg is not None:
                    forwarders[func.name] = name
                if any(k.arg is None for k in node.keywords):
                    setters[name] += [
                        (field, value) for field, value in _dict_keys(func)
                        if field in fields_of[name]]
    for _path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _callee(node)
                kwargs = [(k.arg, k.value) for k in node.keywords if k.arg]
                if name in configs:
                    order = list(configs[name])
                    setters[name] += list(zip(order, node.args)) + kwargs
                elif name in forwarders:
                    setters[forwarders[name]] += kwargs
                elif name == "replace" or (
                        name and name.startswith(FACTORY_PREFIXES)):
                    for cls, fields in fields_of.items():
                        setters[cls] += [(f, v) for f, v in kwargs
                                         if f in fields]
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and "config" in target.value.id.lower()):
                        for cls, fields in fields_of.items():
                            if target.attr in fields:
                                setters[cls].append((target.attr, None))
    return setters


def one_value_fields(configs, setters) -> dict[str, list[str]]:
    """Fields no caller sets, or whose every setter passes the default."""
    single = {}
    for cls, fields in configs.items():
        seen = {}
        for field, value in setters[cls]:
            seen.setdefault(field, []).append(value)
        single[cls] = [
            field for field, default in fields.items()
            if all(value is not None and _same(value, default)
                   for value in seen.get(field, []))]
    return single


def defaulted_parameters(files=None):
    """``[(path, callee name, parameter, position or None)]`` for every
    parameter with a default in ``files`` (``(path, tree)`` pairs;
    default: everything under ``src``)."""
    params = []
    for path, tree in files if files is not None else _files(("src",)):
        classes = {id(item): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for item in cls.body}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = func.name
            if name == "__init__":
                name = classes.get(id(func), name)
            positional = func.args.posonlyargs + func.args.args
            skip = 1 if positional and positional[0].arg in (
                "self", "cls") else 0
            first = len(positional) - len(func.args.defaults)
            for index in range(first, len(positional)):
                params.append((path, name, positional[index].arg,
                               index - skip))
            for arg, default in zip(func.args.kwonlyargs,
                                    func.args.kw_defaults):
                if default is not None:
                    params.append((path, name, arg.arg, None))
    return params


def unpassed_parameters(params, files=None) -> list[tuple]:
    """``[(path, callee name, parameter)]`` for the defaulted parameters
    no call in ``files`` (default: every root) passes."""
    passed: dict[str, set] = {}
    everything: set[str] = set()
    for _path, tree in files if files is not None else _files():
        for name, node in calls(tree):
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                everything.add(name)
            got = passed.setdefault(name, set())
            got.update(range(len(node.args)))
            got.update(k.arg for k in node.keywords if k.arg)
    return [(path, name, arg) for path, name, arg, pos in params
            if name not in everything
            and arg not in passed.get(name, ())
            and (pos is None or pos not in passed.get(name, ()))]


def main() -> None:
    configs = config_fields()
    single = one_value_fields(configs, config_setters(configs))
    params = defaulted_parameters()
    n_fields = sum(len(fields) for fields in configs.values())
    print(f"config fields: {n_fields} on {len(configs)} classes, "
          f"{sum(map(len, single.values()))} with one value")
    for cls in sorted(single):
        if single[cls]:
            print(f"  {cls}: {', '.join(single[cls])}")
    unpassed = unpassed_parameters(params)
    print(f"defaulted parameters: {len(params)} under src/repro, "
          f"{len(unpassed)} never passed")
    for path, name, arg in unpassed:
        print(f"  {path}: {name}({arg})")
    print(f"settable values: {n_fields + len(params)}")


if __name__ == "__main__":
    main()
