"""Objective correctness: closed forms, derivatives, datasets, export."""

import numpy as np
import pytest

from spikelab import (FnnObjective, FnnTaskSpec, QuadraticSpec,
                      export_dataset_rows, make_quadratic)
from spikelab.errors import ConfigError, DivergedEvaluation

# === quadratic ==============================================================


def test_quadratic_matches_formula():
    obj = make_quadratic(QuadraticSpec(eigenvalues=(2.0, 8.0), offset=(1.0, -1.0)))
    th = np.array([3.0, 1.0])
    assert obj.loss(th) == pytest.approx(0.5 * (2 * 4 + 8 * 4))
    assert obj.gradient(th).tolist() == [4.0, 16.0]
    assert obj.hvp(th, np.array([1.0, 1.0])).tolist() == [2.0, 8.0]
    assert obj.lambda_max() == 8.0


def test_quadratic_initial_point_broadcasts_scalar():
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 2.0, 3.0)))
    p = obj.initial_point(2.0)
    assert p.values.tolist() == [2.0, 2.0, 2.0]
    assert p.blocks == (("theta", 0, 3),)


def test_quadratic_initial_point_length_checked():
    obj = make_quadratic(QuadraticSpec(eigenvalues=(1.0, 2.0)))
    with pytest.raises(ConfigError):
        obj.initial_point([1.0, 2.0, 3.0])


def test_quadratic_float_point_gives_one_element_array_bits():
    # run's one-parameter path evaluates Python floats; each method keeps its
    # own order, which the random lambdas make round apart on some draws
    rng = np.random.default_rng(5)
    apart = 0
    for lam, off, theta in rng.standard_normal((2000, 3)) * [10.0, 1.0, 100.0]:
        obj = make_quadratic(QuadraticSpec(eigenvalues=(lam,), offset=(off,)))
        arr = np.array([theta])
        loss, (val, g) = obj.loss(float(theta)), obj.loss_and_gradient(float(theta))
        assert isinstance(loss, float) and isinstance(val, float) and isinstance(g, float)
        val_a, g_a = obj.loss_and_gradient(arr)
        assert loss == obj.loss(arr) and (val, g) == (val_a, g_a[0])
        apart += loss != val
    assert apart > 0
    with pytest.raises(DivergedEvaluation):
        make_quadratic(QuadraticSpec(eigenvalues=(1.0,))).loss_and_gradient(1e200)


def test_quadratic_spec_validation():
    with pytest.raises(ConfigError):
        QuadraticSpec(eigenvalues=())
    with pytest.raises(ConfigError):
        QuadraticSpec(eigenvalues=(1.0, np.inf))
    with pytest.raises(ConfigError):
        QuadraticSpec(eigenvalues=(1.0, 2.0), offset=(0.0,))


# === fnn ====================================================================


def test_fnn_gradient_matches_finite_differences(small_fnn, fnn_point):
    th = fnn_point.values
    g = small_fnn.gradient(th)
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(5):
        d = rng.standard_normal(th.size)
        d /= np.linalg.norm(d)
        fd = (small_fnn.loss(th + h * d) - small_fnn.loss(th - h * d)) / (2 * h)
        assert fd == pytest.approx(float(g @ d), rel=1e-5, abs=1e-9)


def test_fnn_hvp_matches_gradient_differences(small_fnn, fnn_point):
    th = fnn_point.values
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(3):
        d = rng.standard_normal(th.size)
        d /= np.linalg.norm(d)
        hv = small_fnn.hvp(th, d)
        fd = (small_fnn.gradient(th + h * d) - small_fnn.gradient(th - h * d)) / (2 * h)
        assert np.allclose(hv, fd, rtol=1e-4, atol=1e-7)


def test_fnn_block_layout():
    obj = FnnObjective(FnnTaskSpec(input_dim=2, width=3, n_samples=10,
                                    target="linear-plus-diag-quadratic", seed=0))
    names = [b[0] for b in obj.blocks]
    sizes = [b[2] for b in obj.blocks]
    assert names == ["W1", "b1", "W2", "b2"]
    assert sizes == [6, 3, 3, 1]
    assert obj.param_dim == 13


def test_dataset_frozen_by_seed():
    spec = FnnTaskSpec(input_dim=1, width=4, n_samples=20, target="sine-mix", seed=5)
    a = FnnObjective(spec)
    b = FnnObjective(spec)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = FnnObjective(FnnTaskSpec(input_dim=1, width=4, n_samples=20,
                                  target="sine-mix", seed=6))
    assert not np.array_equal(a.X, c.X)


def test_init_reproducible_and_scaled():
    spec = FnnTaskSpec(input_dim=1, width=50, n_samples=5, target="sine-mix",
                       seed=2, init_variance_scale=4.0)
    obj = FnnObjective(spec)
    p1, p2 = obj.initial_point(), obj.initial_point()
    assert np.array_equal(p1.values, p2.values)
    # empirical variance tracks scale/width
    assert np.var(p1.values) == pytest.approx(4.0 / 50, rel=0.45)


def test_sine_mix_needs_one_input():
    with pytest.raises(ConfigError):
        FnnObjective(FnnTaskSpec(input_dim=2, width=4, n_samples=10,
                                  target="sine-mix", seed=0))


def test_task_spec_validation():
    with pytest.raises(ConfigError):
        FnnTaskSpec(input_dim=1, width=0, n_samples=10, target="sine-mix")
    with pytest.raises(ConfigError):
        FnnTaskSpec(input_dim=1, width=4, n_samples=10, target="mystery")
    with pytest.raises(ConfigError):
        FnnTaskSpec(input_dim=1, width=4, n_samples=10, target="sine-mix",
                    noise_std=-0.1)


@pytest.mark.parametrize("fields", [
    {"n_samples": 10 ** 308}, {"width": 10 ** 308}, {"input_dim": 10 ** 5, "width": 10 ** 4},
    {"init_variance_scale": -1.0}, {"noise_std": 1e308},
])
def test_task_spec_refuses_what_it_cannot_build(fields):
    spec = dict(input_dim=1, width=4, n_samples=10, target="linear-plus-diag-quadratic")
    with pytest.raises(ConfigError):
        FnnObjective(FnnTaskSpec(**dict(spec, **fields)))


# === loss at an array point, dataset export =================================


def test_loss_at_array_point(quad3):
    assert quad3.loss(np.array([1.0, 0.0, 0.0])) == 0.5


def test_export_rows_round_trip(small_fnn):
    rows = list(export_dataset_rows(small_fnn))
    assert rows[0] == ["x_0", "y"]
    assert len(rows) == small_fnn.spec.n_samples + 1
    x0 = float(rows[1][0])
    assert x0 == small_fnn.X[0, 0]


def test_export_requires_a_dataset(quad3):
    with pytest.raises(ConfigError):
        list(export_dataset_rows(quad3))
