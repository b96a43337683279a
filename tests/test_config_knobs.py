"""The knob table: one reader, one boolean parser, and bad values clamp
to defaults with a one-time warning instead of crashing (or silently
misconfiguring) the process."""

from __future__ import annotations

import re
import warnings
from pathlib import Path

import pytest

from repro.core import config
from repro.core.config import KNOBS, knob


def _caught(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = knob(name)
    return result, [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_warning_is_emitted_once_per_name_value(monkeypatch):
    monkeypatch.setenv("REPRO_THREADS", "-9")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(5):
            assert knob("REPRO_THREADS") == 1
    assert len(caught) == 1
    # a *different* bad value warns again (it is new information)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        monkeypatch.setenv("REPRO_THREADS", "-10")
        knob("REPRO_THREADS")
    assert len(caught) == 1


def test_serve_knob_defaults(monkeypatch, tmp_path):
    from repro.cli import build_parser
    from repro.serve import protocol
    from repro.serve.client import ServiceClient
    from repro.serve.daemon import KernelServer

    for name in KNOBS:
        monkeypatch.delenv(name, raising=False)
    # queue / workers / deadline are constructor and flag defaults, not knobs
    monkeypatch.setenv("REPRO_SERVE_QUEUE", "7")
    server = KernelServer(tmp_path / "d.sock")
    flags = build_parser().parse_args(["serve", "--socket", "s"])
    assert (server.queue_limit, server.workers, server.deadline) == (32, 4, 30.0)
    assert (flags.queue, flags.workers, flags.deadline) == (32, 4, 30.0)
    assert "REPRO_SERVE_QUEUE" in config.unknown_knobs()
    # so are the client's retries / backoff / timeout
    client = ServiceClient(tmp_path / "d.sock")
    assert (client.retries, client.backoff, client.timeout) == (2, 0.05, 30.0)
    # and the frame bound is a constant the constructor may override
    assert server.max_frame == protocol.MAX_FRAME == 64 << 20
    assert knob("REPRO_STORE_MAX_BYTES") is None
    # and every row's default is what an unset variable reads as
    for name, row in KNOBS.items():
        assert knob(name) == (False if row.kind == "flag" else row.default)


def test_serve_deadline_zero_disables(tmp_path):
    from repro.serve.daemon import KernelServer

    # `repro serve --deadline 0`; the frame read bound reads the same way
    server = KernelServer(tmp_path / "d.sock", deadline=0, read_timeout=0)
    assert server.deadline is None and server.read_timeout is None
    assert KernelServer(tmp_path / "d.sock").read_timeout == 30.0


def test_store_max_bytes(monkeypatch):
    monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "4096")
    assert knob("REPRO_STORE_MAX_BYTES") == 4096
    monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "0")
    assert knob("REPRO_STORE_MAX_BYTES") is None
    result, warned = _caught(monkeypatch, "REPRO_STORE_MAX_BYTES", "-1")
    assert result is None and len(warned) == 1


# ----------------------------------------------------------------------
# one case per *kind*, over every row of that kind
# ----------------------------------------------------------------------
FLAGS = sorted(n for n, row in KNOBS.items() if row.kind == "flag")
CHECKED = sorted(n for n, row in KNOBS.items() if row.kind in ("choice", "int"))


@pytest.mark.parametrize("name", FLAGS)
def test_every_flag_parses_the_same_way(monkeypatch, name):
    """Unset, empty and "0" are off; anything else is on — for *every*
    boolean knob (REPRO_NO_CC=0 used to disable the compiler)."""
    monkeypatch.delenv(name, raising=False)
    assert knob(name) is False
    for value, expected in (("", False), ("0", False), ("1", True), ("yes", True)):
        result, warned = _caught(monkeypatch, name, value)
        assert result is expected and not warned, (name, value)


@pytest.mark.parametrize("name", CHECKED)
def test_every_checked_knob_warns_once_and_falls_back(monkeypatch, name):
    """A bad value reads as the default with exactly one warning across
    repeated reads — a daemon with a typo'd variable must not warn per
    request (REPRO_BACKEND / REPRO_THREADS used to, once per
    ``CompilerOptions()``)."""
    monkeypatch.setenv(name, "not-a-valid-value")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reads = [knob(name) for _ in range(5)]
        if name in ("REPRO_BACKEND", "REPRO_THREADS"):
            reads += [
                getattr(config.CompilerOptions(), name[6:].lower())
                for _ in range(5)
            ]
    assert set(reads) == {KNOBS[name].default}
    assert len(caught) == 1 and name in str(caught[0].message)


def test_flag_zero_no_longer_disables_the_toolchain(monkeypatch):
    from repro.codegen.backends import ctoolchain

    monkeypatch.delenv("REPRO_NO_CC", raising=False)
    ctoolchain.reset_probe_cache()
    try:
        baseline = ctoolchain.probe(), ctoolchain.openmp_flags()
        monkeypatch.setenv("REPRO_NO_CC", "0")
        ctoolchain.reset_probe_cache()
        assert (ctoolchain.probe(), ctoolchain.openmp_flags()) == baseline
        monkeypatch.setenv("REPRO_NO_CC", "1")
        ctoolchain.reset_probe_cache()
        assert ctoolchain.probe() is None
    finally:
        monkeypatch.undo()
        ctoolchain.reset_probe_cache()


def test_doctor_reports_degradation_from_the_flag_parser(monkeypatch, capsys):
    import json

    from repro.cli import main

    for value, enabled in (("0", False), ("1", True)):
        monkeypatch.setenv("REPRO_METRICS", value)
        main(["doctor", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["knobs"]["REPRO_METRICS"] is enabled


def test_doctor_names_variables_that_are_not_knobs(monkeypatch, capsys):
    """A removed or misspelt knob is read by nothing; `repro doctor` is
    where that silence ends."""
    import json

    from repro.cli import main

    monkeypatch.setenv("REPRO_NO_SUCH_KNOB", "4")
    assert "REPRO_NO_SUCH_KNOB" in config.unknown_knobs()
    main(["doctor", "--json"])
    assert "REPRO_NO_SUCH_KNOB" in json.loads(capsys.readouterr().out)["unknown_knobs"]
    main(["doctor"])
    assert "REPRO_NO_SUCH_KNOB is not a knob" in capsys.readouterr().out


def test_readme_knob_table_names_exactly_the_table():
    """README's knob reference and ``--help`` are the same rows."""
    from repro.cli import build_parser

    readme = (Path(__file__).parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` +\|", readme, flags=re.M)
    assert rows == list(KNOBS)
    assert len(KNOBS) == 9
    help_text = build_parser().format_help()
    assert all(name in help_text for name in KNOBS)
    # nothing documents a variable the table does not declare
    # (REPRO_UPDATE_GOLDEN is the test suite's own switch, not the package's)
    mentioned = set(re.findall(r"REPRO_[A-Z_]+[A-Z]", readme + help_text))
    assert mentioned - {"REPRO_UPDATE_GOLDEN"} <= set(KNOBS)


#: values the deleted knobs used to read, clamp or warn about, per variable
LEFTOVERS = {
    "REPRO_DTYPE": ("float32", "bfloat16"),
    "REPRO_CC_TIMEOUT": ("1", "0", "-1", "garbage"),
    "REPRO_CC_RETRIES": ("0", "-3", "0x10"),
    "REPRO_LOCK_TIMEOUT": ("0.1", "0", "-5", "junk"),
    "REPRO_SERVE_MAX_FRAME": ("2048", "1"),
}


def test_leftover_deleted_knobs_change_nothing(monkeypatch, capsys, tmp_path):
    """The variables that used to set the default dtype, the cc timeout and
    retries, the compile-lock wait and the wire frame bound are read by
    nothing: with them set, each of those is still its constant, a wire
    spec without a dtype builds (and keys) the float64 kernel, and
    ``repro doctor`` names each as a variable that is not a knob."""
    from repro.cli import main
    from repro.codegen.backends import ctoolchain
    from repro.core import flock
    from repro.serve import protocol
    from repro.serve.daemon import KernelServer

    spec = {"einsum": "y[i] += A[i, j] * x[j]", "symmetric": {"A": [[0, 1]]}}
    clean_key = protocol.request_from_spec(spec).key
    clean_exit = main(["doctor"])  # 0 wherever a compiler is found
    capsys.readouterr()
    leftovers = {name: values[0] for name, values in LEFTOVERS.items()}
    for name, value in leftovers.items():
        monkeypatch.setenv(name, value)
    assert set(leftovers) <= set(config.unknown_knobs())
    assert config.CompilerOptions().dtype == "float64"
    request = protocol.request_from_spec(spec)
    assert request.options.dtype == "float64" and request.key == clean_key
    assert (ctoolchain.CC_TIMEOUT, ctoolchain.CC_RETRIES) == (60.0, 2)
    assert flock.LOCK_TIMEOUT == 120.0
    assert KernelServer(tmp_path / "d.sock").max_frame == protocol.MAX_FRAME == 64 << 20
    assert main(["doctor"]) == clean_exit
    report = capsys.readouterr().out
    for name in leftovers:
        assert "%s is not a knob" % name in report


@pytest.mark.parametrize(
    "name,value",
    [(n, v) for n, values in LEFTOVERS.items() for v in values],
    ids=lambda x: x,
)
def test_a_leftover_value_is_inert_and_silent(monkeypatch, tmp_path, name, value):
    """Each value a deleted knob used to parse (or clamp with a warning) now
    warns about nothing and moves nothing: options, wire specs, the daemon's
    frame bound, the frame codec and every remaining knob read as they do
    with the variable unset."""
    from repro.codegen.backends import ctoolchain
    from repro.core import flock
    from repro.serve import protocol
    from repro.serve.daemon import KernelServer

    spec = {"einsum": "y[i] += A[i, j] * x[j]", "symmetric": {"A": [[0, 1]]}}
    clean_key = protocol.request_from_spec(spec).key
    clean_knobs = [knob(n) for n in KNOBS]
    monkeypatch.setenv(name, value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        options = config.CompilerOptions()
        request = protocol.request_from_spec(spec)
        server = KernelServer(tmp_path / "d.sock")
        frame = protocol.encode_frame({"blob": b"x" * 4096})
        length = protocol.decode_length(frame[: protocol.HEADER.size])
        knobs = [knob(n) for n in KNOBS]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert options.dtype == request.options.dtype == "float64"
    assert request.key == clean_key
    assert server.max_frame == protocol.MAX_FRAME
    assert length == len(frame) - protocol.HEADER.size > 4096
    assert knobs == clean_knobs
    assert (ctoolchain.CC_TIMEOUT, ctoolchain.CC_RETRIES) == (60.0, 2)
    assert flock.LOCK_TIMEOUT == 120.0
    assert name in config.unknown_knobs()
