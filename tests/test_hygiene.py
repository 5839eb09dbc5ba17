"""Source hygiene, checked with the standard library's `ast` alone.

  * Every name a module in `src/opcalc` or `tests` imports is used in that
    module (`from __future__` imports excepted): an import left behind by a
    move or a merge still costs every process that loads the module.
  * Every private module-level function in `src/opcalc` is referenced
    somewhere in `src/opcalc`: a private helper nothing calls is dead code.
  * Every public module-level function and class in `src/opcalc` is read
    by `src/opcalc` or `perfbench/`, outside its own definition: library
    code that only tests reach is dead code too. `KEPT_WITHOUT_A_USER`
    names the exceptions, each with its reason.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "opcalc").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """The names a module reads, in its code and in its string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = ast.parse(node.value, mode="eval")
                used |= {name.id for name in ast.walk(text) if isinstance(name, ast.Name)}
    return used


def _imported_names(tree: ast.Module) -> set[str]:
    """The names the module's imports bind, anywhere in it."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    assert sorted(_imported_names(tree) - _used_names(tree)) == []


def _references(node: ast.AST) -> set[str]:
    """The names and attribute names read below node, and the names imported there."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def test_every_private_function_is_referenced():
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in SOURCES:
        for node in _tree(path).body:
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                defined[node.name] = path.name
            referenced |= _references(node)
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in referenced)
    assert unused == []


KEPT_WITHOUT_A_USER = (
    ("suites", "psi_double_prime",
     "the law guard for maps of unknown origin; the CLI's own maps take `tagged_map`"),
    ("swisscheese", "compose_sc",
     "the Swiss-cheese operad's composition, which the action's compatibility "
     "laws are stated against (acceptance test 07)"),
    ("swisscheese", "loop_act_sc",
     "the concatenated loop, the reference the closed action is tested against "
     "(`test_sc::test_loop_action_matches_the_sliced_action`)"),
    ("swisscheese", "path_act_sc",
     "the concatenated path, the reference the open action is tested against "
     "(`test_sc::test_path_action_matches_the_open_action`)"),
)


def test_every_public_name_has_a_user():
    defined: dict = {}
    readers: list = []
    for path in SOURCES + BENCHMARK:
        for node in _tree(path).body:
            readers.append((node, _references(node)))
            if (path in SOURCES and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node] = f"{path.stem}:{node.name}"
    unused = sorted(label for node, label in defined.items()
                    if not any(node.name in names for reader, names in readers
                               if reader is not node))
    assert unused == sorted(f"{module}:{name}" for module, name, _ in KEPT_WITHOUT_A_USER)
