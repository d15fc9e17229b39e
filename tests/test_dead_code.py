"""Dead code in the package, found with the standard library's ``ast``.

Three rules over every module of ``src/oporder``: each imported name is
used in the module that imports it (``__init__`` re-exports by
``__all__``); each private module-level name (one leading underscore) is
referenced somewhere in the package besides its definition; and each
public module-level function and class, and each public method of such a
class, is referenced in the package or in ``perfbench/``, or is named in
TEST_ONLY_API.  A name counts as used when it is read as a name, as an
attribute or in an import, or inside a string annotation; in
``perfbench/`` also as a string, since its hooks name what they wrap.
"""
import ast
from collections import Counter

from util import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "oporder"
BENCHMARK = REPO_ROOT / "perfbench"

# public names that only the tests call: the ordered family and its
# deltas, the two probes, and helpers to build, read, parse and rebuild
TEST_ONLY_API = frozenset({
    "gen_ordered_tuple", "OperatorTuple.deltas", "probe_loewner_heinz",
    "probe_contraction_criterion", "diagonal", "matrix_from_json", "parse_lines",
    "SpectralDecomposition.reconstruct",
})


def _modules(directory=PACKAGE) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.glob("*.py"))}


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


def _public_definitions(tree: ast.Module):
    """Public module-level functions and classes, and the public methods of
    those classes as ``Class.method``, with their lines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno


def _strings(tree: ast.AST) -> Counter:
    return Counter(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str))


def unreferenced_public_names(modules: dict[str, ast.Module],
                              benchmark: dict[str, ast.Module]) -> list[str]:
    """Public definitions read nowhere in ``modules`` or ``benchmark``
    (there also as strings), by their last name, as "module:line: name"."""
    uses = sum((_uses(tree) for tree in modules.values()), Counter())
    for tree in benchmark.values():
        uses += _uses(tree) + _strings(tree)
    return [f"{name}:{line}: {defined}" for name, tree in modules.items()
            for defined, line in _public_definitions(tree)
            if not uses[defined.rpartition(".")[2]]]


def test_every_import_is_used():
    assert unused_imports(_modules()) == []


def test_every_private_module_level_name_is_referenced():
    assert unreferenced_private_names(_modules()) == []


def test_every_public_name_is_referenced_or_test_only_api():
    # equal, so that a name which gains a caller leaves the list too
    found = unreferenced_public_names(_modules(), _modules(BENCHMARK))
    assert {entry.rpartition(" ")[2] for entry in found} == TEST_ONLY_API


def test_the_checks_find_what_they_look_for():
    tree = ast.parse("import os\nfrom x import a, b as c\n_dead = 1\n_live = 2\n"
                     "def f(v: 'a') -> None:\n    return _live\n"
                     "class K:\n    def used(self):\n        return self.used\n"
                     "    def hooked(self):\n        pass\n    def dead(self):\n        pass\n")
    assert unused_imports({"m.py": tree}) == ["m.py:1: os", "m.py:2: c"]
    assert unreferenced_private_names({"m.py": tree}) == ["m.py:3: _dead"]
    bench = ast.parse("HOOKS = (('m', 'hooked'),)\n")
    assert unreferenced_public_names({"m.py": tree}, {"b.py": bench}) == [
        "m.py:5: f", "m.py:7: K", "m.py:12: K.dead"]
