"""Structural rules over the source tree, checked by parsing it (no build).

A compiler flag that selects the target or its vector width is chosen in
one place, the toolchain probe (``codegen/backends/ctoolchain.py``), where
it is tried before it is used and becomes part of every object's
identity.  Spelled anywhere else, it would reach ``cc`` untried, or shape
objects whose names do not say so.
"""

import ast
import pathlib

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
