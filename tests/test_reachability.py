import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The oracles: definitions kept with no caller in src/, scripts/ or bench/,
# each an independent route to something the engine computes another way.
ALLOWED = {
    "is_aligned_root": "the paper's root-level definition of alignment, against an "
    "inversion order; oracle for the 231 scan",
    "is_aligned_forcing": "the paper's forcing conditions on cover inversions; "
    "oracle for the 231 scan",
    "aligned_mask": "the 231 scan over every given row, with no pruning; oracle for "
    "the block-pruned build of aligned_rows",
    "sorting_word_longest": "the longest element's sorting word off the inversion "
    "tableau; oracle for longest_element and c_sorting_word",
    "inversion_order": "the longest element's inversion order off the tableau, "
    "cross-checked against its word; the order is_aligned_root reads",
    "c_sorting_word": "the c-sorting word by greedy peeling of right descents; "
    "oracle for the tableau's sorting word",
    "join_irreducible_for": "the paper's join-irreducible for one named inversion; "
    "oracle for the join-irreducibles verify_theorems finds on the lattice",
}


def unreached_definitions() -> list[str]:
    """Functions and methods of ``src/`` that nothing outside their own def reaches.

    A function counts as reached when a name, an attribute or an import in
    ``src/btamari/*.py``, ``scripts/*.py`` or ``bench/*.py`` outside its own
    ``def`` names it; a method only when an attribute does.  ``__init__.py``
    is not read, since its imports only re-export, and docstrings and string
    constants do not count.  Dunders are exempt.  The scan matches by name
    alone, so it cannot see a method that shares its name with a builtin
    method, such as a ``join`` that every ``str.join`` call would seem to
    reach.
    """
    definitions, references = [], []
    for pattern in ("src/btamari/*.py", "scripts/*.py", "bench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            if path.name == "__init__.py":
                continue
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
    return [
        f"{path.stem}.{name}"
        for name, method, path, first, last in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and not any(
            ref == name and (attribute or not method)
            and not (where == path and first <= line <= last)
            for ref, attribute, where, line in references
        )
    ]


def test_every_definition_is_reached():
    # Exactly the oracles go unreached, so an ALLOWED entry for a definition
    # that is deleted, or that a caller now reaches, fails as well.
    unreached = {d.split(".", 1)[1] for d in unreached_definitions()}
    assert unreached ^ ALLOWED.keys() == set()
