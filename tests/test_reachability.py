"""``src/`` is what an entry point reaches.

Walks the static import graph — module-level and function-level imports
alike — from ``repro``, ``repro.cli``, ``repro.__main__`` and every
non-test script under ``benchmarks/e2e`` and ``examples/``, and names any
module under ``src/repro`` the walk never arrives at: code kept alive by
its own tests only.  (``ast`` is used here, in the test; ``src/`` itself
never parses source.)
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = {
    ".".join(path.relative_to(SRC).with_suffix("").parts).replace(".__init__", ""): path
    for path in sorted((SRC / "repro").rglob("*.py"))
}


def _imports(path):
    """Every ``repro`` module *path* names in an import statement."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # `from repro.obs import trace` names a submodule; `from
            # repro.obs.trace import span` a function — keep what exists
            names = [node.module] + [
                "%s.%s" % (node.module, alias.name) for alias in node.names
            ]
        else:
            continue
        for name in names:
            # importing a.b.c runs a/__init__ and a/b/__init__ first
            parts = name.split(".")
            for end in range(1, len(parts) + 1):
                if ".".join(parts[:end]) in MODULES:
                    yield ".".join(parts[:end])


def test_every_module_is_reached_from_an_entry_point():
    scripts = [
        path
        for folder in ("benchmarks/e2e", "examples")
        for path in sorted((ROOT / folder).glob("*.py"))
        if not path.name.startswith("test_")
    ]
    reached = {"repro", "repro.cli", "repro.__main__"}
    todo = [MODULES[name] for name in reached] + scripts
    while todo:
        for name in _imports(todo.pop()):
            if name not in reached:
                reached.add(name)
                todo.append(MODULES[name])
    unreached = sorted(set(MODULES) - reached)
    assert not unreached, "no entry point imports: %s" % ", ".join(unreached)
