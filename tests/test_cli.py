"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


def test_compile_command(capsys):
    rc = main(
        [
            "compile",
            "y[i] += A[i, j] * x[j]",
            "--symmetric",
            "A",
            "--loop-order",
            "j,i",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "canonical chain: i <= j" in out
    assert "def kernel(" in out
    assert "reads 1/2 of symmetric input" in out


def test_compile_naive(capsys):
    rc = main(
        [
            "compile",
            "y[i] += A[i, j] * x[j]",
            "--symmetric",
            "A",
            "--loop-order",
            "j,i",
            "--naive",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "A__full" in out


def test_kernels_command(capsys):
    assert main(["kernels"]) == 0
    out = capsys.readouterr().out
    assert "ssymv" in out
    assert "mttkrp5d" in out
    assert "trianglecount" in out


def test_table2_command(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "bayer02" in out
    assert "2698463" in out  # ct20stif nnz from the paper


def test_bench_command_tiny(capsys):
    rc = main(["bench", "fig07", "--scale", "0.01", "--names", "saylr4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "saylr4" in out
    assert "geomean" in out


def test_bench_with_every_matrix_skipped_prints_no_geomean(monkeypatch, capsys):
    """Was: ``(no results)`` and then ``geomean SySTeC speedup: nanx``."""
    from repro.bench import figures

    monkeypatch.setattr(figures, "DENSE_OUTPUT_BUDGET", 0)
    rc = main(["bench", "fig09", "--scale", "0.01", "--names", "saylr4,sherman5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nan" not in out and "geomean" not in out


def test_bench_rejects_unknown_matrix_names(capsys):
    """Was: ``(no results)``, a ``nan`` geomean and exit 0."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "fig06", "--names", "saylr4,nosuchmatrix"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "nosuchmatrix" in err
    assert "sherman5" in err  # the valid names are listed


@pytest.mark.parametrize("figure", ("fig10", "fig11"))
@pytest.mark.parametrize("flag", (["--scale", "9"], ["--names", "saylr4"]))
def test_bench_rejects_flags_the_figure_ignores(figure, flag, capsys):
    """Was: both flags dropped and the default sweep run."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", figure] + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_bench_has_no_json_flag(capsys):
    """The trajectory merge is deleted, not hidden."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "fig07", "--json", "out.json"])
    assert exc.value.code == 2
    assert "--json" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (
    ["bench", "fig06", "--scale", "0.01", "--names", "saylr4"],
    ["compile", "y[i] += A[i, j] * x[j]", "--symmetric", "A"],
))
def test_threads_auto_is_rejected(argv, capsys):
    """Thread counts are explicit: ``--threads auto`` is an argument error."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "auto"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_serve_warmup_memory_only(capsys):
    rc = main(["serve-warmup", "--kernels", "ssymv,syprd"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "warmed 2 kernels" in out
    assert "ssymv" in out and "compiled" in out
    assert "compiles: 2" in out


def test_serve_warmup_then_cache_listing(tmp_path, capsys):
    cache_dir = str(tmp_path / "store")
    assert main(["serve-warmup", "--dir", cache_dir, "--kernels", "ssymv"]) == 0
    capsys.readouterr()

    assert main(["cache", "--dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "1 kernels" in out
    assert "y[i] += A[i, j] * x[j]" in out
    assert "dtype=" in out  # CompilerOptions.describe() line

    # second warmup is served from disk, no compiles
    assert main(["serve-warmup", "--dir", cache_dir, "--kernels", "ssymv"]) == 0
    out = capsys.readouterr().out
    assert "disk" in out
    assert "compiles: 0" in out


def test_cache_clear_and_empty(tmp_path, capsys):
    cache_dir = str(tmp_path / "store")
    main(["serve-warmup", "--dir", cache_dir, "--kernels", "ssymv"])
    capsys.readouterr()
    assert main(["cache", "--dir", cache_dir, "--clear"]) == 0
    assert "cleared 1 entries" in capsys.readouterr().out
    assert main(["cache", "--dir", cache_dir]) == 0
    assert "empty" in capsys.readouterr().out


def test_cache_requires_dir():
    with pytest.raises(SystemExit):
        main(["cache"])


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["bench", "fig99"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_tune_is_an_unknown_subcommand(capsys):
    """The autotuner is gone: `repro tune` is a usage error like any other
    unknown word, not a silently accepted no-op."""
    with pytest.raises(SystemExit) as exc:
        main(["tune", "ssymv"])
    assert exc.value.code == 2
    assert "invalid choice: 'tune'" in capsys.readouterr().err


def test_backends_command(capsys):
    rc = main(["backends"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "python" in out
    assert "resolves to" in out
    assert "REPRO_BACKEND" in out
    # every loop phase, in pipeline order, none of them switchable
    phases = re.findall(r"^  (\w+) ", out.split("loop phases")[1], flags=re.M)[:5]
    assert phases == ["fuse", "tile", "regblock", "simd", "parallelize"]
    assert not re.search(r"^  \w+ +(on|off) ", out, flags=re.M)
    assert "signature" not in out


def test_compile_with_backend_flag(capsys):
    rc = main(
        [
            "compile",
            "y[i] += A[i, j] * x[j]",
            "--symmetric",
            "A",
            "--loop-order",
            "j,i",
            "--backend",
            "python",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "generated kernel (backend: python)" in out


def test_cache_gc_requires_a_bound(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    main(["serve-warmup", "--dir", cache_dir, "--kernels", "ssymv"])
    capsys.readouterr()
    assert main(["cache", "gc", "--dir", cache_dir]) == 2
    assert "no size bound" in capsys.readouterr().err


def test_cache_gc_evicts_down_to_bound(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    main(["serve-warmup", "--dir", cache_dir, "--kernels", "ssymv,syprd"])
    capsys.readouterr()
    assert main(["cache", "gc", "--dir", cache_dir, "--max-bytes", "1"]) == 0
    out = capsys.readouterr().out
    assert "removed 2 entries" in out
    assert main(["cache", "--dir", cache_dir]) == 0
    assert "empty" in capsys.readouterr().out


def test_cache_gc_json(tmp_path, capsys):
    import json

    cache_dir = str(tmp_path / "cache")
    main(["serve-warmup", "--dir", cache_dir, "--kernels", "ssymv"])
    capsys.readouterr()
    rc = main(
        ["cache", "gc", "--dir", cache_dir, "--max-bytes", "10000000", "--json"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["removed"] == 0 and doc["max_bytes"] == 10000000


def test_doctor_probes_unreachable_daemon(tmp_path, capsys):
    rc = main(
        ["doctor", "--socket", str(tmp_path / "no-daemon.sock"), "--json"]
    )
    import json

    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"]["daemon"]["ok"] is False
    assert "unreachable" in doc["checks"]["daemon"]["detail"]
    # a configured-but-down daemon is an unhealthy check
    assert rc == 1 and doc["healthy"] is False


def test_doctor_and_stats_against_a_live_daemon(tmp_path, capsys, monkeypatch):
    import json

    from repro.serve.protocol import PROTOCOL_VERSION
    from test_serve_daemon import claim_protocol, running_daemon

    with running_daemon(tmp_path) as (server, sock):
        main(["doctor", "--socket", sock, "--json"])
        daemon = json.loads(capsys.readouterr().out)["checks"]["daemon"]
        assert daemon["ok"] is True
        assert "protocol v%d = client v%d" % ((PROTOCOL_VERSION,) * 2) in daemon["detail"]

        assert main(["stats", "--socket", sock]) == 0
        live = json.loads(capsys.readouterr().out)["server"]
        assert live["bytes_in"] > 0 and live["bytes_out"] > 0

        # a daemon from another release: both versions named, exit 1
        claim_protocol(monkeypatch, PROTOCOL_VERSION + 1)
        rc = main(["doctor", "--socket", sock, "--json"])
        daemon = json.loads(capsys.readouterr().out)["checks"]["daemon"]
        assert rc == 1 and daemon["ok"] is False
        assert "protocol v%d, this client v%d" % (PROTOCOL_VERSION + 1, PROTOCOL_VERSION) in daemon["detail"]
    assert main(["stats", "--socket", sock]) == 2  # daemon gone: an error, not a trace
    assert "unavailable" in capsys.readouterr().err


def test_help_epilog_documents_serve_env(capsys):
    import pytest as _pytest

    with _pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "REPRO_STORE_MAX_BYTES" in out


def test_serve_plans_default_is_the_flag_default():
    """The plan pool's size is a flag with a default, not a knob."""
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(["serve", "--socket", "s"]).plans == 32
    assert parser.parse_args(["serve", "--socket", "s", "--plans", "0"]).plans == 0


def test_serve_rejects_bad_store_dir(tmp_path, capsys):
    bogus = tmp_path / "not-a-dir"
    bogus.write_text("file, not directory")
    rc = main(
        ["serve", "--socket", str(tmp_path / "d.sock"), "--dir", str(bogus)]
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err
