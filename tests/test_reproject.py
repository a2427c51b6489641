import inspect

import numpy as np
import pytest

from irissr import dataset, raster, reproject
from irissr.errors import InputError


def _eight_bit(img):
    """Quantise to the 8-bit levels a PGM round trip keeps."""
    return np.rint(img * 255) / 255


def test_default_constants():
    assert reproject.DEFAULT_TAU == 0.02
    assert reproject.DEFAULT_TOL == 1e-5
    assert reproject.DEFAULT_MAX_ITER == 1000
    params = inspect.signature(reproject.reproject).parameters
    assert params["tau"].default == reproject.DEFAULT_TAU
    assert params["tol"].default == reproject.DEFAULT_TOL
    assert params["max_iter"].default == reproject.DEFAULT_MAX_ITER


def _fixed_point_case():
    img, _ = dataset.synth_iris(3, 64)
    y0 = raster.resize_bicubic(raster.degrade(img, 16, 16, 0.0), 64, 64)
    # exact fidelity by construction
    return y0, raster.degrade(y0, 16, 16, 1.0), 1.0


def test_fixed_point_terminates_immediately():
    y0, x, sigma = _fixed_point_case()
    trace = []
    y, iters, converged = reproject.reproject(y0, x, sigma, trace=trace)
    assert iters == 1 and converged
    assert trace == [0.0]
    assert np.array_equal(y, y0)


def test_zero_tau_returns_input():
    img, _ = dataset.synth_iris(4, 64)
    x = raster.degrade(img, 16, 16, 2.0)
    y, iters, converged = reproject.reproject(img, x, 2.0, tau=0.0)
    assert iters == 1 and converged
    assert np.array_equal(y, img)


def test_dims_mismatch_rejected():
    # an HR estimate smaller than the observation along either axis
    for hr, lr in (((32, 32), (8, 40)), ((32, 32), (40, 8)), ((8, 8), (9, 9))):
        with pytest.raises(InputError, match="HR estimate smaller than the LR observation"):
            reproject.reproject(np.zeros(hr), np.zeros(lr), 1.0)


def test_config_validation():
    for bad in ({"tau": -0.1}, {"tau": float("nan")}, {"tau": float("inf")},
                {"tol": 0.0}, {"tol": float("nan")}, {"tol": float("inf")},
                {"max_iter": 0}):
        (key,) = bad
        with pytest.raises(InputError, match=f"^{key} must be"):
            reproject.reproject(np.zeros((32, 32)), np.zeros((8, 8)), 1.0, **bad)


def test_termination_within_max_iter():
    img, _ = dataset.synth_iris(5, 96)
    sigma = raster.antialias_sigma(96, 96, 12, 12)
    lr = dataset.simulate_lr(img, 12, 12, sigma)
    base = raster.resize_bicubic(lr, 96, 96)
    y, iters, converged = reproject.reproject(base, lr, sigma, max_iter=25)
    assert iters <= 25
    if not converged:
        assert iters == 25


def test_fidelity_residual_decreases_on_seeds():
    # smaller slice of the corpus here; the full 20-seed sweep runs in
    # the acceptance suite
    for seed in range(4):
        img, _ = dataset.synth_iris(seed, 231)
        sigma = raster.antialias_sigma(231, 231, 15, 15)
        lr = dataset.simulate_lr(img, 15, 15, sigma)
        base = raster.resize_bicubic(lr, 231, 231)
        y, iters, converged = reproject.reproject(base, lr, sigma)
        r0 = np.abs(raster.degrade(base, 15, 15, sigma) - lr).mean()
        r1 = np.abs(raster.degrade(y, 15, 15, sigma) - lr).mean()
        assert r1 <= r0
        assert converged


def test_determinism():
    img, _ = dataset.synth_iris(6, 96)
    sigma = raster.antialias_sigma(96, 96, 16, 16)
    lr = dataset.simulate_lr(img, 16, 16, sigma)
    base = raster.resize_bicubic(lr, 96, 96)
    y1, i1, c1 = reproject.reproject(base, lr, sigma, max_iter=60)
    y2, i2, c2 = reproject.reproject(base, lr, sigma, max_iter=60)
    assert i1 == i2 and c1 == c2
    assert np.array_equal(y1, y2)


def test_trace_records_every_iteration():
    img, _ = dataset.synth_iris(7, 64)
    sigma = raster.antialias_sigma(64, 64, 8, 8)
    lr = dataset.simulate_lr(img, 8, 8, sigma)
    base = raster.resize_bicubic(lr, 64, 64)
    trace = []
    _, iters, _ = reproject.reproject(base, lr, sigma, max_iter=15, trace=trace)
    assert len(trace) == iters
    assert all(d >= 0 for d in trace)


def test_non_square_factor_reaches_fidelity():
    # rows shrink 231 -> 15 and columns 231 -> 57: each axis's inner blur
    # needs its own scale, or the rows' residual is smeared and stays large
    img, _ = dataset.synth_iris(0, 231)
    sigma = raster.antialias_sigma(231, 231, 57, 15)
    lr = _eight_bit(dataset.simulate_lr(img, 57, 15, sigma))
    y0 = raster.resize_bicubic(lr, 231, 231)
    y, _, converged = reproject.reproject(y0, lr, sigma)
    assert converged
    residual = raster.degrade(y, 57, 15, sigma) - lr
    assert np.sqrt(np.mean(residual ** 2)) < 0.01


def _reference_reproject(y0, x, sigma, tau=reproject.DEFAULT_TAU,
                         tol=reproject.DEFAULT_TOL, max_iter=reproject.DEFAULT_MAX_ITER):
    """The recurrence as first written, one HR degrade per iteration."""
    y = np.asarray(y0, dtype=np.float64).copy()
    hr_h, hr_w = y.shape
    lr_h, lr_w = x.shape
    trace = []
    iterations, converged = 0, False
    for _ in range(max_iter):
        iterations += 1
        residual = raster.degrade_linear(y, lr_w, lr_h, sigma) - x
        if sigma > 0:
            # the degradation blur rescaled from HR to LR pixels along each
            # axis: rows first, then columns, each pass ending transposed
            for lr_n, hr_n in ((lr_h, hr_h), (lr_w, hr_w)):
                taps = raster.gaussian_taps(sigma * (lr_n / hr_n))
                residual = raster._correlate_rows(residual, taps).T
        step = raster.upsample_linear(residual, hr_w, hr_h)
        y_next = y - tau * step
        delta = float(np.mean(np.abs(y_next - y)))
        trace.append(delta)
        y = y_next
        if delta < tol:
            converged = True
            break
    return raster.clamp01(y), iterations, converged, trace


@pytest.mark.parametrize("seed,hr,lr,sigma,extra", [
    (0, (231, 231), (15, 15), None, {"max_iter": 300}),
    (1, (231, 231), (57, 57), None, {}),
    (2, (96, 80), (12, 16), None, {"max_iter": 400}),
    (3, (64, 64), (16, 16), 0.0, {}),
    # a loose tolerance converges after 17 iterations
    (4, (64, 64), (16, 16), None, {"tol": 3e-4}),
    (5, (64, 64), (16, 16), None, {"tau": 0.0}),
    # 1/8 and 1/2 from 8-bit inputs, as `sr` reads them from PGMs
    (6, (231, 231), (29, 29), None, {"max_iter": 150, "eight_bit": True}),
    (7, (231, 231), (115, 115), None, {"max_iter": 200, "eight_bit": True}),
    # no blur at 1/2: the eigenvectors of D U have condition number 1.2e13
    # here, so a closed form through them would lose precision
    (8, (231, 231), (115, 115), 0.0, {"eight_bit": True}),
])
def test_operator_form_matches_reference(seed, hr, lr, sigma, extra):
    hr_h, hr_w = hr
    lr_h, lr_w = lr
    extra = dict(extra)
    quantise = _eight_bit if extra.pop("eight_bit", False) else np.asarray
    img, _ = dataset.synth_iris(seed, max(hr))
    img = img[:hr_h, :hr_w]
    observed_sigma = raster.antialias_sigma(hr_w, hr_h, lr_w, lr_h)
    lr_img = quantise(dataset.simulate_lr(img, lr_w, lr_h, observed_sigma))
    # a bilinear start is further from a fixed point than the bicubic baseline
    y0 = quantise(raster.resize_bilinear(lr_img, hr_w, hr_h))
    sigma = observed_sigma if sigma is None else sigma
    trace = []
    y, iters, converged = reproject.reproject(y0, lr_img, sigma, trace=trace, **extra)
    y_ref, iters_ref, converged_ref, trace_ref = _reference_reproject(
        y0, lr_img, sigma, **extra)
    assert iters == iters_ref and converged == converged_ref
    assert np.abs(np.array(trace) - np.array(trace_ref)).max() < 1e-12
    assert np.abs(y - y_ref).max() < 1e-12
    assert np.array_equal(np.rint(y * 255), np.rint(y_ref * 255))


def _eye_case(seed, hr, lr, sigma=None):
    hr_h, hr_w = hr
    lr_h, lr_w = lr
    img = dataset.synth_iris(seed, max(hr))[0][:hr_h, :hr_w]
    observed_sigma = raster.antialias_sigma(hr_w, hr_h, lr_w, lr_h)
    lr_img = _eight_bit(dataset.simulate_lr(img, lr_w, lr_h, observed_sigma))
    # a bilinear start is further from a fixed point than the bicubic baseline
    y0 = raster.resize_bilinear(lr_img, hr_w, hr_h)
    return y0, lr_img, observed_sigma if sigma is None else sigma


@pytest.mark.parametrize("case,extra", [
    (lambda: _eye_case(0, (231, 231), (15, 15)), {"max_iter": 300}),
    (lambda: _eye_case(1, (231, 231), (57, 57)), {}),
    (lambda: _eye_case(2, (96, 80), (12, 16)), {}),
    (lambda: _eye_case(3, (64, 64), (16, 16), sigma=0.0), {}),
    (lambda: _eye_case(4, (64, 64), (16, 16)), {"tau": 0.0}),
    (_fixed_point_case, {}),
], ids=["1_16_cap_300", "1_4", "non_square", "sigma_0", "tau_0", "fixed_point"])
def test_certified_stop_matches_every_exact_test(monkeypatch, case, extra):
    # `trace` forces the exact HR stop test on every iteration; without it
    # most iterations are skipped on the LR bound, and nothing else changes
    y0, x, sigma = case()
    forced, iters, converged = reproject.reproject(y0, x, sigma, trace=[], **extra)
    refreshes = []
    sign = np.sign
    # each exact test that does not stop the loop keeps sign(step)
    monkeypatch.setattr(np, "sign", lambda a: refreshes.append(1) or sign(a))
    certified, iters_c, converged_c = reproject.reproject(y0, x, sigma, **extra)
    monkeypatch.undo()
    assert np.array_equal(certified, forced)
    assert (iters_c, converged_c) == (iters, converged)
    # and the bound does skip: at most one exact test in twenty iterations
    assert len(refreshes) <= max(1, iters // 20)
