"""Every public function, method and field in `src/lcsq` has a reader in
`src/lcsq`.

The check parses each module with `ast`.  It lists every public top-level
function, and every public method and annotated field of a public class
(dunders are exempt), and asks whether the package reads it:

- a method, property or field is read when some `Attribute` node anywhere
  in the package names it (`x.name`);
- a top-level function is read when its own module names it as a bare
  `Name`, when another module names it as `module.name` on a name bound
  to its module (`from . import module`), or when another module imports
  it (`from .module import name`).

A name the package does not read is either wired in or deleted, or it is
in ALLOWED with the reason it stays.

A bare name read elsewhere does not count, so a local `pairs` cannot hide
a dead method `pairs`, nor a method `to_json_dict` a dead function of that
name.  Attributes are still matched by name alone, whatever the object: a
dead `BinMatrix.entry` would hide behind the live `MagicUnitaryCert.entry`,
and a `BinMatrix.zero` behind `MagicUnitaryCert.zero`.  Such a name is
found by reading, not by this test.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lcsq"
PACKAGE = "lcsq"

ALLOWED = {
    "decolor.check_min_degree": "ROADMAP item 20: a decoloring hypothesis for a "
                                "`hypotheses` report section",
    "decolor.check_matchings": "ROADMAP item 20: a decoloring hypothesis for a "
                               "`hypotheses` report section",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _modules(src: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(src.glob("*.py"))}


def public_names(src: Path = SRC) -> dict[str, str]:
    """Qualified name -> "function", "method" or "field", for every public
    top-level function and every public method and annotated field of a
    public class."""
    found = {}
    for stem, tree in _modules(src).items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
                found[f"{stem}.{node.name}"] = "function"
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and _public(item.name):
                        found[f"{stem}.{node.name}.{item.name}"] = "method"
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) \
                            and _public(item.target.id):
                        found[f"{stem}.{node.name}.{item.target.id}"] = "field"
    return found


def _sibling(node: ast.ImportFrom) -> str | None:
    """The package module an import takes names from, or None."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module and node.module.startswith(PACKAGE + "."):
        return node.module[len(PACKAGE) + 1:]
    return None


def read_names(src: Path = SRC) -> tuple[set[str], set[str]]:
    """(functions, attributes): every "module.function" the package reads by
    the rules above, and every identifier that occurs as an attribute."""
    functions, attributes = set(), set()
    for stem, tree in _modules(src).items():
        modules = {}  # a name bound in this module -> the package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _sibling(node)
                for alias in node.names:
                    if source is None and node.level == 1:  # from . import module
                        modules[alias.asname or alias.name] = alias.name
                    elif source is not None:
                        functions.add(f"{source}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith(PACKAGE + ".") and alias.asname:
                        modules[alias.asname] = alias.name[len(PACKAGE) + 1:]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                functions.add(f"{stem}.{node.id}")
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    functions.add(f"{modules[node.value.id]}.{node.attr}")
    return functions, attributes


def unread_names(src: Path = SRC) -> set[str]:
    functions, attributes = read_names(src)
    return {qual for qual, kind in public_names(src).items()
            if (qual not in functions if kind == "function"
                else qual.rsplit(".", 1)[1] not in attributes)}


def test_every_public_name_has_a_reader_or_a_reason():
    unread = unread_names()
    assert unread - ALLOWED.keys() == set(), "public names that nothing in src reads"
    assert ALLOWED.keys() - unread == set(), "allowlisted names that src now reads"


def test_a_local_name_does_not_read_a_method_or_another_modules_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def pairs():\n    pass\n\n"
        "def shared():\n    pass\n\n"
        "class Box:\n    items: list\n    dead: int\n\n"
        "    def pairs(self):\n        pass\n\n"
        "    def size(self):\n        return len(self.items)\n")
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "from .a import shared\n\n"
        "def use(box):\n    pairs = box.size()\n    return a.Box, pairs, shared\n")
    assert unread_names(tmp_path) == {"a.pairs", "a.Box.pairs", "a.Box.dead", "b.use"}


def test_no_assert_statements():
    # a check in the package must survive `python -O`, which strips asserts
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
