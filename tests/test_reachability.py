"""Library code is reached by the program, not only by its tests.

An AST scan over `src/pinninglab`. Its roots are every statement of the
modules that run and judge experiments (`experiments`, `acceptance`,
`cli`, `records`) and every name that `perfbench/*.py` mentions. A
top-level `def` or `class` is reached when a reached definition mentions
its name. Names resolve by spelling alone, so a name that two modules
define reaches both: the scan can miss dead code, but it flags only code
that no root can reach.
"""
import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "pinninglab"
ROOT_MODULES = {"experiments", "acceptance", "cli", "records"}
# the module of independent oracles; law_from_mass, the finite-support law
# that tests build; terminating_shift, the fix homogeneous_free_energy's
# error names. Each other name must stay defined and unreached, so the
# list shrinks as code is deleted or put to use.
ALLOWED = {"oracles", "law_from_mass", "terminating_shift"}


def _mentions(node: ast.AST) -> set[str]:
    """Names, attributes and identifier-like strings under `node`."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _scan() -> tuple[set[str], set[str], list[tuple[str, str]]]:
    """(top-level names defined, names reached, (module, name) of every
    def or class the scan checks)."""
    defs: dict[str, list[ast.stmt]] = {}
    todo: set[str] = set()
    checked = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if module in ROOT_MODULES:
                todo |= _mentions(stmt)
            for name in _defined(stmt):
                defs.setdefault(name, []).append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and module not in ROOT_MODULES | ALLOWED:
                checked.append((module, stmt.name))
    for path in sorted((REPO / "perfbench").glob("*.py")):
        todo |= _mentions(ast.parse(path.read_text()))

    reached: set[str] = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for stmt in defs.get(name, ()):
            todo |= _mentions(stmt) - reached
    return set(defs), reached, checked


def unreached() -> list[str]:
    """`module.name` of every top-level def or class no root reaches."""
    _, reached, checked = _scan()
    return [f"{m}.{n}" for m, n in checked if n not in reached and n not in ALLOWED]


def test_library_code_is_reached_by_the_program():
    missing = unreached()
    assert not missing, f"reached only by tests: {missing}"


def test_allowlist_names_only_unreached_code():
    defined, reached, _ = _scan()
    modules = {path.stem for path in SRC.glob("*.py")}
    gone = sorted(ALLOWED - defined - modules)
    used = sorted((ALLOWED - modules) & reached)
    assert not gone and not used, f"allowed but no longer defined: {gone}; now reached: {used}"
