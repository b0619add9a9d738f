"""The helper rule of ROADMAP aim 2: a public function, class or method of
``src/mrscene`` stays only if code other than its own definition and its
own ``tests/test_<module>.py`` names it."""

import ast
import collections
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mrscene"
# public names with no other user, each with the reason it may stay
ALLOWED = {
    "trainer.Adam.load_state_entries": "under ROADMAP item 9 resume will give it a caller, "
                                       "or it is removed along with the Adam state",
}


def public_definitions():
    """(module, qualified name, name) of every public module-level function
    and class of the package, and of every public method of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name, node.name
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def names_used(path: Path) -> collections.Counter:
    """How often each name is read, imported or looked up as an attribute in
    the code of ``path``; a definition's own name is none of these."""
    used = collections.Counter()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rpartition(".")[2]] += 1
    return used


def test_every_public_name_has_a_user_beyond_its_own_tests():
    used = {path: names_used(path) for top in ("src", "tests", "bench", "demos")
            for path in sorted((ROOT / top).rglob("*.py"))}
    unused = []
    for module, qualified, name in public_definitions():
        own_tests = ROOT / "tests" / f"test_{module}.py"
        if not any(counts[name] for path, counts in used.items() if path != own_tests):
            unused.append(f"{module}.{qualified}")
    assert sorted(unused) == sorted(ALLOWED), "public names with no user beyond their own tests"
