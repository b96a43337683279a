"""The scripts under ``examples/`` run: nothing else executes them."""

import os
import runpy

import pytest

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(__file__)), "examples")


@pytest.mark.parametrize(
    "name",
    (
        "quickstart",
        "triangle_counting",
        "covariance_statistics",
        "symmetric_cpd",
        "shortest_paths",
    ),
)
def test_example_runs(name, capsys):
    runpy.run_path(os.path.join(EXAMPLES, name + ".py"), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_reproduce_figures_imports():
    """Import only (minutes to run): its ``repro.bench`` names resolve."""
    module = runpy.run_path(
        os.path.join(EXAMPLES, "reproduce_figures.py"), run_name="reproduce_figures"
    )
    assert callable(module["main"])
