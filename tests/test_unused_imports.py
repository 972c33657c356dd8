"""Every name a ``src`` module imports is used in that module.

A stdlib-``ast`` check, so it needs no linter: for each module other than
a package ``__init__.py`` (whose imports are its re-exports), every name
bound by an ``import`` must be read somewhere in the module — as a name,
or inside a string annotation.  Names listed in ``__all__``, imports
under ``if TYPE_CHECKING:`` and import statements marked ``# noqa: F401``
(or a ``# noqa:`` code list naming F401) are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(tree: ast.Module):
    """``(name, statement)`` for every import binding outside TYPE_CHECKING."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If) and _is_type_checking(node):
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node
        pending.extend(ast.iter_child_nodes(node))


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations ("OrderedDict[str, Report]") name types.
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
    return used


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    exempt = _used_names(tree) | _exported(tree)

    def marked(node):
        span = lines[node.lineno - 1 : node.end_lineno]
        return any("# noqa:" in line and "F401" in line for line in span)

    return sorted(
        f"{path.relative_to(SRC)}:{node.lineno}: {name}"
        for name, node in _imports(tree)
        if name not in exempt and not marked(node)
    )


def test_src_modules_use_every_import():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            found.extend(unused_imports(path))
    assert found == []
