import tracemalloc

import numpy as np
import pytest

from crossmodal import gradcheck, losses, model, trainer
from crossmodal.core import RngStream
from crossmodal.errors import ConfigError
from crossmodal.gradcheck import (
    COMPONENTS,
    check_component,
    finite_difference,
    max_rel_error,
    run_suite,
)
from crossmodal.losses import LossOutput
from conftest import pin_note
from test_losses import TIE_BATCHES


def test_finite_difference_on_quadratic():
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    fd = finite_difference(lambda v: float((v**2).sum()), x)
    assert np.allclose(fd, 2 * x, atol=1e-8)


def test_finite_difference_restores_input():
    x = np.array([1.0, 2.0, 3.0])
    finite_difference(lambda v: float(v.sum()), x)
    assert np.array_equal(x, [1.0, 2.0, 3.0])


def test_finite_difference_perturbs_in_place_and_restores_bitwise():
    # entries chosen so that (x + h) - h != x in floating point
    x = np.array([[0.1, 1 / 3], [-2.5e-7, 7.0]])
    before = x.copy()
    alias = x.reshape(-1)
    seen = []

    def fn(_):
        seen.append(alias.copy())
        return float(alias.sum())

    finite_difference(fn, x, h=1e-6)
    assert x.tobytes() == before.tobytes()
    assert len(seen) == 2 * x.size
    for call, values in enumerate(seen):
        i, sign = call // 2, (1.0, -1.0)[call % 2]
        assert np.flatnonzero(values != before.ravel()).tolist() == [i]
        assert values[i] == before.ravel()[i] + sign * 1e-6


def test_max_rel_error_uses_floor_for_tiny_coordinates():
    a = np.array([0.0, 1.0])
    n = np.array([1e-9, 1.0])
    # first coordinate falls below the floor: compared as |a-n| / floor
    assert max_rel_error(a, n) == pytest.approx(1e-9 / gradcheck.REL_FLOOR)
    assert max_rel_error(a, a) == 0.0


def test_run_suite_covers_requested_components():
    results = run_suite(instances=2, seed=0, components=["l_id", "l_global"])
    assert [r.name for r in results] == ["l_id", "l_global"]
    for r in results:
        assert r.passed
        assert r.instances == 2
        assert r.max_rel_error <= gradcheck.DEFAULT_TOL


def test_empty_component_list_checks_nothing():
    assert run_suite(instances=1, components=[]) == []


def test_component_order_and_draws_are_pinned():
    # any change to the RNG paths, instance sizes or draw order moves these values
    expected = {
        "l_id": 2.762117702528183e-08,
        "l_intra": 2.2157127514470996e-08,
        "l_global": 7.983863608439076e-08,
        "msel_euclid": 3.909481158942407e-09,
        "msel_cosine": 4.285983026819373e-09,
        "dcl_hard": 2.0257268779078075e-08,
        "dcl_all": 2.132046067471194e-08,
        "dcl_dyn": 1.7000832278382292e-08,
        "l1": 1.6623508025843947e-07,
        "l2": 6.257275554765447e-08,
        "model_stage1": 1.8797697773353939e-07,
        "model_stage2": 3.5527160102688526e-07,
    }
    assert COMPONENTS == tuple(expected)
    results = run_suite(instances=1, seed=0)
    assert {r.name: repr(r.max_rel_error) for r in results} == {
        name: repr(err) for name, err in expected.items()
    }, pin_note()


def test_every_component_is_checkable():
    # one instance each: the full 20-instance sweep runs in the acceptance suite
    for name in COMPONENTS:
        err = check_component(name, instances=1, seed=3)
        assert err <= gradcheck.DEFAULT_TOL, name


def test_unknown_component_rejected():
    with pytest.raises(ConfigError):
        check_component("l_everything")


@pytest.mark.parametrize("instances", [0, -3])
def test_no_instances_rejected(instances):
    # an empty sweep has no error to report and must not read as a pass
    with pytest.raises(ConfigError, match="instances must be >= 1"):
        check_component("l_global", instances=instances)
    with pytest.raises(ConfigError, match="instances must be >= 1"):
        run_suite(instances=instances)


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_bad_tolerance_rejected(tol):
    # no error can pass a tolerance that is not a positive number
    with pytest.raises(ConfigError, match="tol must be finite and > 0"):
        run_suite(instances=1, tol=tol, components=["l_id"])


def test_suite_catches_a_planted_gradient_bug(monkeypatch):
    real = losses.msel

    def sabotaged(batch, metric="euclid"):
        out = real(batch, metric)
        return LossOutput(out.value, -out.grad)

    monkeypatch.setattr(losses, "msel", sabotaged)
    results = run_suite(instances=2, seed=0, components=["msel_euclid"])
    assert not results[0].passed
    assert results[0].max_rel_error > 1.0


def _plant_nan(monkeypatch, name):
    """Patch loss ``name`` so one coordinate of its gradient is NaN."""
    real = getattr(losses, name)

    def planted(*args):
        out = real(*args)
        grad = out.grad.copy()
        grad[..., 0, 0] = np.nan
        return LossOutput(out.value, grad, out.mining)

    monkeypatch.setattr(losses, name, planted)


@pytest.mark.parametrize("loss, component", [("msel", "msel_euclid"), ("identity_loss", "l_id")])
def test_a_nan_gradient_coordinate_fails(monkeypatch, loss, component):
    # a NaN error must not read as 0: the component fails and reports NaN
    _plant_nan(monkeypatch, loss)
    (result,) = run_suite(instances=2, seed=0, components=[component])
    assert not result.passed
    assert np.isnan(result.max_rel_error)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", COMPONENTS)
def test_stacked_differences_are_the_loop_oracle(name, seed):
    # the same streams check_component draws from
    draw = gradcheck._DRAWERS[name]
    triples = draw(RngStream(seed).child(COMPONENTS.index(name)).child(0))
    for _, value_fn, x in triples:
        calls = []

        def counting(stack):
            calls.append(len(stack))
            return value_fn(stack)

        before = x.copy()
        stacked = gradcheck._differences(counting, x)
        assert x.tobytes() == before.tobytes()
        # exactly one call per checked tensor, never one per coordinate
        assert calls == [2 * x.size]
        oracle = finite_difference(value_fn, x)
        assert stacked.tobytes() == oracle.tobytes()


def _triples(name):
    """The ``(analytic, value_fn, x)`` triples of ``check_component(name)``'s first instance."""
    return gradcheck._DRAWERS[name](RngStream(0).child(COMPONENTS.index(name)).child(0))


@pytest.mark.parametrize("name", COMPONENTS)
def test_every_checked_tensor_is_one_value_call(name):
    for _, value_fn, x in _triples(name):
        calls = []

        def counting(stack):
            calls.append(len(stack))
            return value_fn(stack)

        gradcheck._differences(counting, x)
        assert calls == [2 * x.size], x.shape


@pytest.mark.parametrize("name", ["model_stage1", "model_stage2"])
def test_model_value_function_runs_no_backward_pass(monkeypatch, name):
    ((_, value_fn, x),) = _triples(name)
    calls = []
    real = model.backward

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (model, trainer):
        monkeypatch.setattr(module, "backward", counting)
    assert value_fn(np.repeat(x[None], 4, axis=0)).shape == (4,)
    assert calls == []


@pytest.mark.parametrize("name", COMPONENTS)
def test_differences_working_set_is_bounded(name):
    # the largest stacks, 144 to 174 copies, peak at about 2.3 MB
    triples = _triples(name)
    tracemalloc.start()
    try:
        for _, value_fn, x in triples:
            gradcheck._differences(value_fn, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("component", ["l_global", "dcl_hard"])
def test_draw_loop_rejects_a_tied_instance(monkeypatch, component):
    # every candidate is the batch whose hardest pairs and nearest negatives tie
    tied = TIE_BATCHES["equidistant"]
    monkeypatch.setattr(gradcheck, "_random_batch", lambda rng, p, k, dim, pair: tied)
    with pytest.raises(ConfigError, match="^could not find a general-position instance$"):
        check_component(component, instances=1)
