import ast
from pathlib import Path

import btamari

ROOT = Path(__file__).resolve().parents[1]

# Definitions kept with no caller in src/, scripts/ or bench/, and why.
ALLOWED = {
    "aligned_mask": "labelled oracle: the batch 231 scan over given rows",
    "count_aligned": "CI's projection-fiber step calls it",
}


def unreached_definitions() -> list[str]:
    """Functions and methods of ``src/`` that nothing outside their own def reaches.

    A function counts as reached when a name, an attribute or an import in
    ``src/btamari/*.py``, ``scripts/*.py`` or ``bench/*.py`` outside its own
    ``def`` names it; a method only when an attribute does.  Docstrings and
    string constants do not count.  Dunders, ``btamari.__all__`` and
    ``ALLOWED`` are exempt.  The scan matches by name alone, so it cannot
    see a method that shares its name with a builtin method, such as a
    ``join`` that every ``str.join`` call would seem to reach.
    """
    definitions, references = [], []
    for pattern in ("src/btamari/*.py", "scripts/*.py", "bench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    references.append((node.id, False, path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    references.append((node.attr, True, path, node.lineno))
                elif isinstance(node, ast.ImportFrom):
                    references += [(a.name, False, path, node.lineno) for a in node.names]
                if pattern.startswith("src"):
                    definitions += [
                        (d.name, isinstance(node, ast.ClassDef), path, d.lineno, d.end_lineno)
                        for d in ast.iter_child_nodes(node)
                        if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                    ]
    exempt = set(btamari.__all__) | ALLOWED.keys()
    return [
        f"{path.stem}.{name}"
        for name, method, path, first, last in definitions
        if name not in exempt and not (name.startswith("__") and name.endswith("__"))
        and not any(
            ref == name and (attribute or not method)
            and not (where == path and first <= line <= last)
            for ref, attribute, where, line in references
        )
    ]


def test_every_definition_is_reached():
    assert unreached_definitions() == []
