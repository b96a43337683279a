"""Tests for the Finch-syntax plan printer against the paper's listings."""

from repro.core.compiler import optimize
from repro.core.printer import finch_syntax
from repro.core.symmetrize import symmetrize
from repro.frontend.parser import parse_assignment

FULL2 = {"A": ((0, 1),)}
FULL3 = {"A": ((0, 1, 2),)}


def test_ssymv_figure2_shape():
    plan = symmetrize(
        parse_assignment("y[i] += A[i, j] * x[j]"), FULL2, ("j", "i")
    )
    text = finch_syntax(plan)
    assert "for j=_, i=_" in text
    assert "if i <= j" in text
    assert "if i < j" in text
    assert "if i == j" in text
    # one read performs two updates in the strict block
    assert text.count("y[i] +=") + text.count("y[j] +=") >= 3


def test_syprd_listing5_shape():
    plan = optimize(
        symmetrize(parse_assignment("y[] += x[i] * A[i, j] * x[j]"), FULL2, ("j", "i")),
    )
    text = finch_syntax(plan)
    # Listing 5: the off-diagonal update carries the 2x factor
    assert "y[] += 2 * A[j, i]" in text


def test_mttkrp_diag_and_strict_nests():
    plan = optimize(
        symmetrize(
            parse_assignment("C[i, j] += A[i, k, l] * B[k, j] * B[l, j]"),
            FULL3,
            ("l", "k", "i", "j"),
        ),
    )
    text = finch_syntax(plan)
    assert "# strict canonical triangle" in text
    assert "# diagonals" in text
    assert "if i <= k && k <= l" in text


def test_lookup_table_rendering():
    plan = optimize(
        symmetrize(
            parse_assignment("C[i, j] += A[i, k, l] * B[k, j] * B[l, j]"),
            FULL3,
            ("l", "k", "i", "j"),
        ),
    )
    text = finch_syntax(plan)
    assert "factor = lookup[" in text
    assert "factor *" in text


def test_replication_note():
    plan = optimize(
        symmetrize(
            parse_assignment("C[i, j] += A[i, k] * A[j, k]"), {}, ("k", "j", "i")
        ),
    )
    text = finch_syntax(plan)
    assert "replicate C" in text


def test_min_plus_rendering():
    plan = optimize(
        symmetrize(parse_assignment("y[i] min= A[i, j] + d[j]"), FULL2, ("j", "i")),
    )
    text = finch_syntax(plan)
    assert "<<min>>=" in text
    assert "A[j, i] + d[j]" in text or "A[j, i] + d[i]" in text
