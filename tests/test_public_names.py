"""Every public name in ``src/antifrag`` has a caller there.

A public top-level function or class, or a public method, that no code in
``src/`` refers to by name is an API kept for nobody; each one that stays
is listed in ``KEPT`` with the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "antifrag"

# name -> why it stays without a caller in src/
KEPT = {
    "pipeline.execute": "every report as text, nothing written; the acceptance tests "
                        "compare runs with it",
    "analysis.pearson": "the correlation of one pair of columns; the acceptance tests "
                        "check it on exact lines",
    "analysis.quantile_bin_summary": "the bins of one list of entries; the acceptance "
                                     "tests check their counts",
    "WindowScaleResults.satisfactions": "each agent's satisfaction series; the acceptance "
                                        "and oracle tests read them",
}


def public_definitions(tree: ast.Module, module: str) -> dict[str, str]:
    """Qualified name -> bare name of each public top-level function and
    class, and of each public method of a top-level class."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[f"{module}.{node.name}"] = node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{node.name}.{item.name}"] = item.name
    return found


def referred_names(tree: ast.Module) -> set[str]:
    """The names code refers to: each variable and each attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_public_name_has_a_caller_in_src():
    defined, referred = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined |= public_definitions(tree, path.stem)
        referred |= referred_names(tree)
    uncalled = sorted(q for q, name in defined.items() if name not in referred)
    assert uncalled == sorted(KEPT)
