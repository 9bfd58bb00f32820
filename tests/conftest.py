"""Let ``python -m cfcool`` in test subprocesses import the source tree under
test, and pin the solver path of the golden digests."""

import os
from pathlib import Path

import pytest


def pytest_configure(config):
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def solver_for_nonideal_loops(monkeypatch):
    """Route an imbalanced, lossy or delayed preset loop to the network
    solver, and every other loop to its closed form: the routing that the
    solver-path golden digests pin."""
    from cfcool import design

    route = design.closed_loop_response

    def routed(config, method="auto"):
        ideal = config.filt is None or (config.filt.is_symmetric_ideal and config.delay == 0.0)
        return route(config, method if ideal else "solver")

    monkeypatch.setattr(design, "closed_loop_response", routed)
