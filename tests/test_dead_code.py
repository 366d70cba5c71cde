"""Every top-level function and class in pinchopt is run by the package, so
a helper only tests call lives with the tests, and no function rebinds a
module or enclosing name.  Stdlib only, like test_imports.py."""
import ast
from pathlib import Path

from test_trace_targets import TARGETS

SRC = Path(__file__).resolve().parents[1] / "src" / "pinchopt"

# name -> why it stays although nothing in the package calls it
KEEP = {
    "initial_layout": "17 call sites in test_placement.py build rigid layouts through it",
    "iteration_bound": "the documented worst-case bisection count, held by the tests",
}


def _unreferenced(modules: dict[str, ast.Module], entry: set[tuple[str, str]]) -> list[str]:
    """``module.name`` of each top-level def no other code refers to, leaving
    out ``entry`` points and ``__init__``'s re-exports."""
    defs, used = [], set()
    for module, tree in modules.items():
        if module == "__init__":
            continue
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                defs.append((module, own))
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    return sorted(f"{m}.{n}" for m, n in defs if n not in used and (m, n) not in entry)


def test_every_definition_is_run_by_the_package():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    flagged = _unreferenced(modules, set(TARGETS) | {("cli", "main")})
    assert [name for name in flagged if name.split(".")[1] not in KEEP] == []
    # a kept name that is gone or now run leaves the list
    assert set(KEEP) <= {name.split(".")[1] for name in flagged}


def test_the_check_sees_an_unreferenced_definition():
    modules = {
        "__init__": ast.parse("from .a import f, g, h\n"),
        "a": ast.parse("def f():\n    return f()\n\ndef g():\n    return h()\n\n"
                       "def h():\n    pass\n\nclass K:\n    pass\n"),
        "b": ast.parse("import a\n\ndef main():\n    return a.K()\n"),
    }
    assert _unreferenced(modules, {("b", "main")}) == ["a.f", "a.g"]


def _rebinding(modules: dict[str, ast.Module]) -> list[str]:
    """``module:line`` of each ``global`` or ``nonlocal`` statement: state that
    outlives a call belongs to its caller."""
    return [f"{module}:{node.lineno}" for module, tree in modules.items()
            for node in ast.walk(tree) if isinstance(node, (ast.Global, ast.Nonlocal))]


def test_no_module_state():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert _rebinding(modules) == []


def test_the_check_sees_global_and_nonlocal():
    modules = {
        "a": ast.parse("_state = None\n\ndef f():\n    global _state\n    _state = 1\n"),
        "b": ast.parse("def g():\n    n = 0\n\n    def h():\n        nonlocal n\n"
                       "        n += 1\n    return h\n\ndef k():\n    return {}\n"),
    }
    assert _rebinding(modules) == ["a:4", "b:5"]
