"""Library code is reached by the program, not only by its tests.

An AST scan over `src/pinninglab`. Its roots are every statement of the
modules that run and judge experiments (`experiments`, `acceptance`,
`cli`, `records`) and every name that `perfbench/*.py` mentions. A
top-level `def`, `class` or constant, or a method other than a dunder,
is reached when a reached definition mentions its name; a reached class
reaches its dunders and the rest of its body, but not its other methods.
Names resolve by spelling alone, so a name that two modules define
reaches both: the scan can miss dead code, but it flags only code that
no root can reach.

A second scan holds each default to the program's calls, those in
`src/pinninglab` outside `oracles` and in `perfbench`; tests do not count.
A defaulted parameter of a top-level library `def` must be set by one
call and left at its default by another. Otherwise it is a constant or a
required argument.
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


def _methods(stmt: ast.stmt) -> list[ast.FunctionDef]:
    """The methods of a class statement, dunders aside."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [s for s in stmt.body if isinstance(s, ast.FunctionDef)
            and not (s.name.startswith("__") and s.name.endswith("__"))]


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


def _scan() -> tuple[set[str], set[str], list[tuple[str, str, str | None]]]:
    """(top-level names defined, names reached, (module, name, class) of
    every def, class, constant or method the scan checks)."""
    defined: set[str] = set()
    uses: dict[str, list[set[str]]] = {}  # per name, what each definition mentions
    todo: set[str] = set()
    checked = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if module in ROOT_MODULES:
                todo |= _mentions(stmt)
            methods = _methods(stmt)
            for name in _defined(stmt):
                defined.add(name)
                uses.setdefault(name, []).append(set().union(
                    *(_mentions(c) for c in ast.iter_child_nodes(stmt) if c not in methods)))
            for m in methods:
                uses.setdefault(m.name, []).append(_mentions(m))
            if module in ROOT_MODULES | ALLOWED:
                continue
            checked += [(module, name, None) for name in _defined(stmt)
                        if not (name.startswith("__") and name.endswith("__"))]
            checked += [(module, m.name, stmt.name) for m in methods]
    for path in sorted((REPO / "perfbench").glob("*.py")):
        todo |= _mentions(ast.parse(path.read_text()))

    reached: set[str] = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for mentioned in uses.get(name, ()):
            todo |= mentioned - reached
    return defined, reached, checked


def unreached() -> list[str]:
    """`module.name` of every top-level def, class or constant no root
    reaches, and `module.Class.method` of every such method of a reached
    class."""
    _, reached, checked = _scan()
    return [f"{m}.{c + '.' if c else ''}{n}" for m, n, c in checked
            if n not in reached and n not in ALLOWED and (c is None or c in reached)]


def test_library_code_is_reached_by_the_program():
    missing = unreached()
    assert not missing, f"reached only by tests: {missing}"


def test_allowlist_names_only_unreached_code():
    defined, reached, _ = _scan()
    modules = {path.stem for path in SRC.glob("*.py")}
    gone = sorted(ALLOWED - defined - modules)
    used = sorted((ALLOWED - modules) & reached)
    assert not gone and not used, f"allowed but no longer defined: {gone}; now reached: {used}"


def _program_calls() -> list[ast.Call]:
    """Every call in the program: `src/pinninglab` but `oracles`, and `perfbench`."""
    paths = [p for p in sorted(SRC.glob("*.py")) if p.stem != "oracles"]
    paths += sorted((REPO / "perfbench").glob("*.py"))
    return [node for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)]


def _defaults_misfit() -> list[str]:
    """`name(param): why` for each defaulted parameter of a top-level def
    outside the root modules and `oracles` that no program call sets, or
    that every program call sets. A parameter is set by a call that passes
    it by position or keyword, or that passes `*args` or `**kwargs`."""
    calls: dict[str, list[ast.Call]] = {}
    for call in _program_calls():
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        calls.setdefault(name, []).append(call)
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ROOT_MODULES | {"oracles"}:
            continue
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            defaulted = [(i, p.arg) for i, p in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)]
            defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            for i, param in defaulted:
                sets = [any(isinstance(x, ast.Starred) for x in c.args)
                        or any(k.arg in (None, param) for k in c.keywords)
                        or (i is not None and i < len(c.args))
                        for c in calls.get(fn.name, [])]
                if not any(sets):
                    out.append(f"{fn.name}({param}): never set")
                elif all(sets):
                    out.append(f"{fn.name}({param}): never left at its default")
    return out


def test_every_default_is_both_set_and_left_by_the_program():
    # the scan sees defaults: law_from_mass's three are never set, and only
    # ALLOWED exempts them
    misfit = _defaults_misfit()
    assert {f"law_from_mass({p}): never set" for p in ("alpha", "c_k", "tail_mass")} \
        <= set(misfit)
    misfit = [m for m in misfit if m.split("(")[0] not in ALLOWED]
    assert not misfit, f"defaults the program does not use both ways: {misfit}"
