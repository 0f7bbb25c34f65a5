"""Every public function, class and method of `sigmach` has a user in the
library itself or in the benchmark; code that only tests call does not stay.

A name counts as used when a bare name, an attribute or an identifier string
(`bench/tracing.py` binds names by string) refers to it from module-level
code of `src/sigmach` (not `__init__.py`: an export alone is no use), from
`bench/`, or from a used definition other than itself.  A method counts as
used when its class does and an attribute or string names it.  Names are
matched by spelling only, so a name shared by two definitions keeps both: the
check can miss dead code, but never flags live code.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Names that no library code, command or benchmark calls yet, each kept for
# a stated reason.  An entry that the code comes to use must go.
KEEP = {
    "euclid_trace": "the Euclid oracle of the planned accumulation suites (ROADMAP item 1)",
    "wall_trace": "reads a gcd run's remainders for the planned accumulation suites (item 1)",
    "classify": "the planned `sigmach classify` verdict (item 5)",
    "validate": "checks a machine built without `SignalMachine.build`",
    "serialize_machine": "the round-trip oracle of `parse_machine_file`",
}


def _references(node):
    """What `node` refers to: (all identifiers, those that an attribute or a
    string gives)."""
    names, attrs = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            attrs.add(n.value)
    return names | attrs, attrs


def _scan():
    """The public definitions as (module, class or function, method or
    None), the top-level definitions' references by name, and the
    references of module-level code in `src/sigmach` and `bench/`."""
    public, bodies = [], {}
    roots, root_attrs = set(), set()
    for path in sorted((ROOT / "src" / "sigmach").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names, attrs = _references(stmt)
                roots |= names
                root_attrs |= attrs
                continue
            names, attrs = _references(stmt)
            bodies.setdefault(stmt.name, []).append((names - {stmt.name}, attrs))
            if not stmt.name.startswith("_"):
                public.append((path.stem, stmt.name, None))
            if isinstance(stmt, ast.ClassDef):
                public += [(path.stem, stmt.name, m.name) for m in stmt.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    for path in sorted((ROOT / "bench").glob("*.py")):
        names, attrs = _references(ast.parse(path.read_text(encoding="utf-8")))
        roots |= names
        root_attrs |= attrs
    return public, bodies, roots, root_attrs


PUBLIC, BODIES, ROOTS, ROOT_ATTRS = _scan()


def unused(keep):
    """Public definitions that nothing used refers to, as dotted names;
    the names in `keep` count as used."""
    used, attrs = ROOTS | set(keep), ROOT_ATTRS | set(keep)
    todo = list(used)
    while todo:
        for names, body_attrs in BODIES.get(todo.pop(), []):
            attrs |= body_attrs
            todo += names - used
            used |= names
    return [
        ".".join(filter(None, (module, name, method)))
        for module, name, method in PUBLIC
        if (name not in used if method is None else name in used and method not in attrs)
    ]


def test_no_public_name_is_used_by_tests_alone():
    found = unused(KEEP)
    assert not found, f"no library or benchmark code uses: {', '.join(found)}"


@pytest.mark.parametrize("name", sorted(KEEP))
def test_each_kept_name_is_still_unused(name):
    assert any(dotted.endswith(f".{name}") for dotted in unused(set(KEEP) - {name})), (
        f"{name} has a user now: drop it from KEEP")
