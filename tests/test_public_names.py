"""Every public name in ``src/antifrag`` has a caller there.

A public top-level function or class that no code in ``src/`` refers to by
name, or a public method that no code there reaches as an attribute, is an
API kept for nobody; each one that stays is listed in ``KEPT`` with the
reason it stays. A method is counted as called only through an attribute
access, so a local variable of its name does not hide it. An attribute of
its name still does: ``IndexSeries.values`` counts as called because the
series and channel records have ``values`` fields that ``src/`` reads.
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
    "WindowScaleResults.results": "each agent's antifragility result; the acceptance and "
                                  "oracle tests read them",
    "NormalizedPanel.agents": "each agent's normalized channels; the acceptance and oracle "
                              "tests read them",
    "PerturbationSeries.periods": "a perturbation series' periods as dates; the acceptance "
                                  "tests read them",
}


def public_definitions(tree: ast.Module, module: str) -> dict[str, tuple[str, bool]]:
    """Qualified name -> (bare name, whether it is a method) of each public
    top-level function and class, and of each public method of a top-level
    class."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[f"{module}.{node.name}"] = (node.name, False)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{node.name}.{item.name}"] = (item.name, True)
    return found


def test_every_public_name_has_a_caller_in_src():
    defined, names, attributes = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined |= public_definitions(tree, path.stem)
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        attributes |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    uncalled = sorted(q for q, (name, method) in defined.items()
                      if name not in (attributes if method else names | attributes))
    assert uncalled == sorted(KEPT)
