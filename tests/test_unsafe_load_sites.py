"""Every place ``src/repro`` can turn bytes into running code, frozen.

An AST walk finds each call to ``pickle.loads``, ``cloudpickle.loads``,
``marshal.loads`` (also when imported by name or under an alias) and to the
builtins ``exec`` and ``eval`` (not ``.eval`` methods), and names it by file
and enclosing function. The set must equal :data:`ALLOWED` exactly:

- a new site fails here until it is argued for and added;
- a removed site fails here until its entry is deleted, so the list only
  ever shrinks and never keeps a slot a later change could reuse.

Each entry says which boundary the bytes cross.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

_LOADER_MODULES = ("pickle", "cloudpickle", "marshal")

#: ``(path under src/repro, qualified function, call) -> number of calls``.
ALLOWED: dict[tuple[str, str, str], int] = {
    # The subprocess worker installs the client's UDF: the one place client
    # code is meant to be unpickled.
    ("sandbox/worker.py", "main", "pickle.loads"): 1,
    # Source the code generator itself just produced (the only module that
    # may exec).
    ("engine/compile.py", "_assemble", "exec"): 1,
    # The inline UDF runtime: privileged compute only (dedicated, single-user
    # clusters and the Table 2 "no isolation" baseline); once per digest.
    ("engine/expressions.py", "_inline_function", "cloudpickle.loads"): 1,
}


class _SiteFinder(ast.NodeVisitor):
    """Collects ``(qualified function, call)`` for every unsafe-load call."""

    def __init__(self) -> None:
        self.sites: list[tuple[str, str]] = []
        self._scope: list[str] = []
        #: Local name -> loader module (``import pickle as p``).
        self._modules: dict[str, str] = {}
        #: Local name -> "module.loads" (``from pickle import loads``).
        self._functions: dict[str, str] = {}

    def _nested(self, node: ast.AST, name: str) -> None:
        self._scope.append(name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._nested(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._nested(node, node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._nested(node, node.name)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in _LOADER_MODULES:
                self._modules[alias.asname or alias.name] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in _LOADER_MODULES:
            for alias in node.names:
                if alias.name == "loads":
                    self._functions[alias.asname or alias.name] = f"{node.module}.loads"

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        call = None
        if isinstance(func, ast.Name):
            if func.id in ("exec", "eval"):
                call = func.id
            else:
                call = self._functions.get(func.id)
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "loads"
            and isinstance(func.value, ast.Name)
            and func.value.id in self._modules
        ):
            call = f"{self._modules[func.value.id]}.loads"
        if call is not None:
            self.sites.append((".".join(self._scope) or "<module>", call))
        self.generic_visit(node)


def _sites() -> Counter:
    found: Counter = Counter()
    for path in sorted(SRC.rglob("*.py")):
        finder = _SiteFinder()
        finder.visit(ast.parse(path.read_text(), filename=str(path)))
        rel = path.relative_to(SRC).as_posix()
        found.update((rel, function, call) for function, call in finder.sites)
    return found


def test_unsafe_load_sites_are_exactly_the_allowlist():
    found = _sites()
    new = {site: n for site, n in found.items() if ALLOWED.get(site, 0) < n}
    stale = {site: n for site, n in ALLOWED.items() if found.get(site, 0) < n}
    assert not new, f"unsafe-load sites not on the allowlist: {new}"
    assert not stale, f"allowlisted sites that no longer exist (delete them): {stale}"


def test_the_finder_sees_aliases_and_ignores_eval_methods():
    source = (
        "import pickle as p\n"
        "from marshal import loads as m\n"
        "def f(x):\n"
        "    p.loads(x); m(x); eval(x); x.eval(); exec(x)\n"
    )
    finder = _SiteFinder()
    finder.visit(ast.parse(source))
    assert sorted(finder.sites) == [
        ("f", "eval"), ("f", "exec"), ("f", "marshal.loads"), ("f", "pickle.loads"),
    ]
