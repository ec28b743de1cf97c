"""Every public function and method in `src/lcsq` has a reader in `src/lcsq`.

The check parses each module with `ast`.  It lists every public top-level
function, and every public method of a public class (dunders are exempt),
and asks whether the name occurs as a `Name` or `Attribute` node anywhere
in the package.  A name that does not is either wired in or deleted, or
it is in ALLOWED with the reason it stays.

Matching is by name only, so it cannot see a dead method that shares its
name with a live one: a `BinMatrix.entry` would hide behind the live
`MagicUnitaryCert.entry`, and a `BinMatrix.zero` behind
`MagicUnitaryCert.zero`.  Such a name is found by reading, not by this test.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lcsq"

ALLOWED = {
    "qcert.extract_generators": "ROADMAP item 4: the duality round trip for `cert qut`",
    "decolor.check_min_degree": "ROADMAP item 6: a decoloring hypothesis for `qsym`",
    "decolor.check_matchings": "ROADMAP item 6: a decoloring hypothesis for `qsym`",
    "fpgroups.regular_perm_rep": "ROADMAP item 5: an order oracle in the tests",
    "f2core.BinMatrix.from_rows": "the tests' matrix constructor",
    "f2core.BinMatrix.to_lists": "the tests' view of a matrix",
    "f2core.BinMatrix.transpose": "the tests' oracle for column operations",
    "graphiso.refine": "the tests' 1-WL oracle for one graph",
    "graphiso.StableColoring.num_classes": "read with `refine` in the tests",
    "reps.VerificationReport.residual": "the tests' per-family residual",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_names() -> dict[str, str]:
    """Qualified name -> bare name, for every public function and method."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
                found[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and _public(item.name):
                        found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def read_names() -> set[str]:
    """Every identifier that occurs as a Name or an Attribute in the package."""
    read = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_public_name_has_a_reader_or_a_reason():
    read = read_names()
    unread = {qual for qual, name in public_names().items() if name not in read}
    assert unread - ALLOWED.keys() == set(), "public names that nothing in src reads"
    assert ALLOWED.keys() - unread == set(), "allowlisted names that src now reads"
