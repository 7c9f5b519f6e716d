"""Shared fixtures: small objectives and a sandboxed output root."""

import numpy as np
import pytest

from spikelab import FnnObjective, FnnTaskSpec, QuadraticSpec, make_quadratic


@pytest.fixture(autouse=True)
def _sandbox_out(tmp_path, monkeypatch):
    # keep stray writes out of the repo; explicit out= flags still win
    monkeypatch.setenv("SPIKELAB_OUT", str(tmp_path / "runs"))


@pytest.fixture
def quad3():
    """3-d diagonal quadratic with eigenvalues 1, 5, 10."""
    return make_quadratic(QuadraticSpec(eigenvalues=(1.0, 5.0, 10.0)))


@pytest.fixture
def small_fnn():
    """Tiny sine-regression net, cheap enough for finite differences."""
    return FnnObjective(FnnTaskSpec(
        input_dim=1, width=6, n_samples=40, target="sine-mix", seed=3))


@pytest.fixture
def fnn_point(small_fnn):
    return small_fnn.initial_point()


def rng(seed=0):
    return np.random.default_rng(seed)
