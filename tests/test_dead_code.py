"""Dead code in the package, found with the standard library's ``ast``.

Two rules over every module of ``src/oporder``: each imported name is used
in the module that imports it (``__init__`` re-exports by ``__all__``), and
each private module-level name (one leading underscore) is referenced
somewhere in the package besides its definition.  A name counts as used
when it is read as a name, as an attribute or in an import, or inside a
string annotation.
"""
import ast
from collections import Counter

from util import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "oporder"


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _annotation_names(tree: ast.AST):
    """Names read inside string annotations, such as "SpectralDecomposition"."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        else:
            continue
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield from (n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                                if isinstance(n, ast.Name))


def _uses(tree: ast.AST) -> Counter:
    """How often each identifier is read in a module: as a name, an
    attribute, an imported name or in a string annotation."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    found.update(_annotation_names(tree))
    return found


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(modules: dict[str, ast.Module]) -> list[str]:
    found = []
    for name, tree in modules.items():
        uses, exported = _uses(tree), _exported(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                # an ImportFrom counts its own names once in _uses
                reads = uses[bound] - (isinstance(node, ast.ImportFrom) and alias.asname is None)
                if reads < 1 and bound not in exported:
                    found.append(f"{name}:{node.lineno}: {bound}")
    return found


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node.lineno


def unreferenced_private_names(modules: dict[str, ast.Module]) -> list[str]:
    uses = sum((_uses(tree) for tree in modules.values()), Counter())
    found = []
    for name, tree in modules.items():
        for defined, line in _private_definitions(tree):
            private = defined.startswith("_") and not defined.startswith("__")
            if private and not uses[defined]:
                found.append(f"{name}:{line}: {defined}")
    return found


def test_every_import_is_used():
    assert unused_imports(_modules()) == []


def test_every_private_module_level_name_is_referenced():
    assert unreferenced_private_names(_modules()) == []


def test_the_checks_find_what_they_look_for():
    tree = ast.parse("import os\nfrom x import a, b as c\n_dead = 1\n_live = 2\n"
                     "def f(v: 'a') -> None:\n    return _live\n")
    assert unused_imports({"m.py": tree}) == ["m.py:1: os", "m.py:2: c"]
    assert unreferenced_private_names({"m.py": tree}) == ["m.py:3: _dead"]
