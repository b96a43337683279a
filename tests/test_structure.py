"""Structural rules over the source tree, checked by parsing it (no build).

A compiler flag that selects the target or its vector width is chosen in
one place, the toolchain probe (``codegen/backends/ctoolchain.py``), where
it is tried before it is used and becomes part of every object's
identity.  Spelled anywhere else, it would reach ``cc`` untried, or shape
objects whose names do not say so.

The tensor layer sits below the compiler: no module under ``repro/tensor/``
imports ``repro.codegen`` when it is imported.  The native split reaches
the toolchain from inside its loader (``tensor/native.py``), on first use.

C spelled in the package includes no intrinsics header: ``<immintrin.h>``
alone preprocesses to some 46 k lines, more than doubling the split
routine's ``cc``, whose AVX-512 block step names the ``__builtin_ia32_*``
builtins instead.  One
place picks the narrow index width (``repro.tensor.coo``) and one line
declares it to C (``c.INDEX_DECLARATION``); nothing else spells it.

The lookup table of paper §4.2.5 is part of every SySTeC plan, not an
option: nothing in the package, its tests, README, examples or notes
sets, reads or lists a ``lookup_table`` option, apart from the one line
that states what an older peer still sends (and is refused).  Nor does
anything spell the five ``REPRO_*`` variables that became constants, apart
from the test that setting them changes nothing.

The knob table (``core/config.py``) is the one module that reads the
process environment.

A kernel's result is finished by its program (the ``finish`` entry point
mirrors and restores it); the numpy gather ``replicate_output`` is only
the reference oracle's and the lazy symmetric view's.

There is no batch engine: a caller with many input sets holds one
``execution_plan`` per set, so nothing spells the deleted batch API, and
the daemon's request pool is the package's only thread pool.
"""

import ast
import pathlib
import re

import repro

SOURCE = pathlib.Path(repro.__file__).parent

#: flag prefixes only the probe may spell
TARGET_FLAGS = ("-march", "-mprefer-vector-width")
PROBE = SOURCE / "codegen" / "backends" / "ctoolchain.py"


def _flag_literals(path):
    """``(line, literal)`` of every string constant in *path* that starts
    with one of :data:`TARGET_FLAGS`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith(TARGET_FLAGS)
    ]


def test_only_the_toolchain_probe_spells_a_target_flag():
    assert PROBE.exists()
    found = {
        str(path.relative_to(SOURCE)): literals
        for path in sorted(SOURCE.rglob("*.py"))
        if path != PROBE
        for literals in [_flag_literals(path)]
        if literals
    }
    assert found == {}


def test_the_probe_spells_the_flags_it_tries():
    assert {value.split("=")[0] for _, value in _flag_literals(PROBE)} == set(
        TARGET_FLAGS
    )


TENSOR = SOURCE / "tensor"


def _module_level_imports(path):
    """``(line, dotted name)`` of every import *path* runs when it is
    imported: none inside a function body."""
    package = ["repro"] + list(path.parent.relative_to(SOURCE).parts)
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = package[: len(package) - child.level + 1] if child.level else []
                module = ".".join(base + ([child.module] if child.module else []))
                found.extend((child.lineno, module + "." + alias.name) for alias in child.names)
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def test_the_tensor_layer_imports_no_compiler_at_module_level():
    assert (TENSOR / "native.py").exists()
    found = {
        str(path.relative_to(SOURCE)): hits
        for path in sorted(TENSOR.rglob("*.py"))
        for hits in [
            [(line, name) for line, name in _module_level_imports(path)
             if (name + ".").startswith("repro.codegen.")]
        ]
        if hits
    }
    assert found == {}


#: an include of any intrinsics header (``immintrin.h``, ``x86intrin.h``, …)
INTRIN_INCLUDE = re.compile(r'#\s*include\s*[<"][^>"]*intrin\.h')


def _intrin_includes(root):
    """``path:line`` of every intrinsics-header include in a file under
    *root* (compiled caches aside)."""
    return [
        "%s:%d" % (path.relative_to(root), number)
        for path in sorted(root.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        for number, line in enumerate(path.read_text(errors="replace").splitlines(), 1)
        if INTRIN_INCLUDE.search(line)
    ]


def test_no_source_includes_an_intrinsics_header():
    assert _intrin_includes(SOURCE) == []


#: the one line outside ``tensor/coo.py`` that may spell the narrow width
#: (CI's "One index width rule" is the same grep)
INDEX_DECLARATION = re.compile(r' +"#define RP_INDEX int32_t",')


def _narrow_width_lines(root):
    """``path:line`` of every ``int32`` in a module under *root* but
    ``tensor/coo.py`` and ``codegen/backends/c.py``'s declaration."""
    found = []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root).as_posix()
        for number, line in enumerate(path.read_text().splitlines(), 1):
            declared = where == "codegen/backends/c.py" and INDEX_DECLARATION.fullmatch(line)
            if "int32" in line and where != "tensor/coo.py" and not declared:
                found.append("%s:%d" % (where, number))
    return found


def test_only_the_index_declaration_spells_the_narrow_width():
    assert _narrow_width_lines(SOURCE) == []


REPO = pathlib.Path(__file__).resolve().parent.parent

#: a ``lookup_table`` option declared (a dataclass field), set (keyword,
#: assignment), read, sent as a JSON/dict key or listed by
#: ``describe()``; the pass module, its ``build_lookup_table``, its
#: ``pass:lookup_table`` span and its ``note="lookup_table"`` match none
LOOKUP_TABLE_OPTION = re.compile(
    r'lookup_table *=[^=]|options\.lookup_table|"lookup_table":|[+-]lookup_table'
    r'|^ *lookup_table *:'
)
OPTION_PATHS = ("src", "tests", "README.md", "examples", ".claude")
#: path -> the lines (stripped) there allowed to match: the wire-refusal
#: test's older-peer options
OPTION_ALLOWED = {
    "tests/test_serve_protocol.py": {'OLDER_PEER_OPTIONS = {"lookup_table": True}'},
}


def _spellings(repo, pattern, allowed):
    """``path:line`` of every line under :data:`OPTION_PATHS` of *repo*
    that *pattern* matches, but the lines (stripped) *allowed* lists for
    its path (this file, whose patterns spell the names, and compiled
    caches aside)."""
    found = []
    for top in OPTION_PATHS:
        root = repo / top
        paths = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in paths:
            where = path.relative_to(repo).as_posix()
            skip = "__pycache__" in path.parts or where == "tests/test_structure.py"
            if skip or not path.is_file():
                continue
            lines = allowed.get(where, ())
            for number, line in enumerate(path.read_text(errors="replace").splitlines(), 1):
                if pattern.search(line) and line.strip() not in lines:
                    found.append("%s:%d" % (where, number))
    return found


def test_nothing_spells_a_lookup_table_option():
    assert _spellings(REPO, LOOKUP_TABLE_OPTION, OPTION_ALLOWED) == []


#: environment variables that were knobs and are constants now: the
#: default dtype (``CompilerOptions.dtype``), the cc timeout and retries
#: (``ctoolchain.CC_TIMEOUT`` / ``CC_RETRIES``), the compile-lock wait
#: (``flock.LOCK_TIMEOUT``) and the wire frame bound (``protocol.MAX_FRAME``)
DELETED_KNOB = re.compile(
    r"REPRO_(DTYPE|CC_TIMEOUT|CC_RETRIES|LOCK_TIMEOUT|SERVE_MAX_FRAME)\b"
)
#: the values with which the knob tests check that setting them changes nothing
DELETED_KNOB_ALLOWED = {
    "tests/test_config_knobs.py": {
        '"REPRO_DTYPE": ("float32", "bfloat16"),',
        '"REPRO_CC_TIMEOUT": ("1", "0", "-1", "garbage"),',
        '"REPRO_CC_RETRIES": ("0", "-3", "0x10"),',
        '"REPRO_LOCK_TIMEOUT": ("0.1", "0", "-5", "junk"),',
        '"REPRO_SERVE_MAX_FRAME": ("2048", "1"),',
    },
}


def test_nothing_spells_a_deleted_knob():
    assert _spellings(REPO, DELETED_KNOB, DELETED_KNOB_ALLOWED) == []


#: a read of the process environment
ENVIRONMENT_READ = re.compile(r"os\.environ|os\.getenv")
CONFIG = SOURCE / "core" / "config.py"


def _environment_readers(root):
    """``path:line`` of every module under *root* but ``core/config.py``
    that reads the environment."""
    return [
        "%s:%d" % (path.relative_to(root).as_posix(), number)
        for path in sorted(root.rglob("*.py"))
        if path != root / "core" / "config.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if ENVIRONMENT_READ.search(line)
    ]


def test_the_knob_table_is_the_only_environment_reader():
    assert ENVIRONMENT_READ.search(CONFIG.read_text())
    assert _environment_readers(SOURCE) == []


#: the modules that may finish a symmetric output outside generated code:
#: the reference oracle and the lazy view.  Every kernel result is finished
#: by its program's ``finish`` entry point (paper §4.2.2).
GATHER_CALLERS = {"codegen/reference.py", "tensor/symmetric_view.py"}


def _gather_calls(root):
    """``path:line`` of every call of ``replicate_output`` in a module
    under *root*."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "func", None)
            name = getattr(name, "id", getattr(name, "attr", None))
            if isinstance(node, ast.Call) and name == "replicate_output":
                found.append("%s:%d" % (path.relative_to(root).as_posix(), node.lineno))
    return found


def test_only_the_oracle_and_the_view_call_the_replication_gather():
    calls = _gather_calls(SOURCE)
    assert [call for call in calls if call.split(":")[0] not in GATHER_CALLERS] == []
    assert {call.split(":")[0] for call in calls} == GATHER_CALLERS


#: the deleted batch engine's API: its request type, its runner, its
#: module and the service method
BATCH_ENGINE = re.compile(r"BatchRequest|run_batch|repro\.service\.batch|\.batch\(")


def test_nothing_spells_the_batch_engine():
    assert _spellings(REPO, BATCH_ENGINE, {}) == []


#: the one module that may start a thread pool: the daemon, whose
#: ``--workers`` threads serve requests
POOL_OWNER = "serve/daemon.py"


def _pool_users(root):
    """The modules under *root* that spell ``ThreadPoolExecutor``."""
    return {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if "ThreadPoolExecutor" in path.read_text()
    }


def test_only_the_daemon_starts_a_thread_pool():
    assert _pool_users(SOURCE) == {POOL_OWNER}
