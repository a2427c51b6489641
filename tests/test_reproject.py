import numpy as np
import pytest

from irissr import dataset, raster, reproject


def test_default_constants():
    cfg = reproject.ReprojectConfig(lr_w=8, lr_h=8, sigma=1.0)
    assert cfg.tau == 0.02
    assert cfg.tol == 1e-5
    assert cfg.max_iter == 1000


def test_fixed_point_terminates_immediately():
    img, _ = dataset.synth_iris(3, 64)
    y0 = raster.upsample(raster.degrade(img, 16, 16, 0.0), 64, 64)
    x = raster.degrade(y0, 16, 16, 1.0)  # exact fidelity by construction
    trace = []
    y, iters, converged = reproject.reproject(
        y0, x, reproject.ReprojectConfig(16, 16, 1.0), trace=trace)
    assert iters == 1 and converged
    assert trace == [0.0]
    assert np.array_equal(y, y0)


def test_zero_tau_returns_input():
    img, _ = dataset.synth_iris(4, 64)
    x = raster.degrade(img, 16, 16, 2.0)
    y, iters, converged = reproject.reproject(
        img, x, reproject.ReprojectConfig(16, 16, 2.0, tau=0.0))
    assert iters == 1 and converged
    assert np.array_equal(y, img)


def test_dims_mismatch_rejected():
    with pytest.raises(reproject.ReprojectError):
        reproject.reproject(np.zeros((32, 32)), np.zeros((8, 9)),
                            reproject.ReprojectConfig(8, 8, 1.0))


def test_config_validation():
    with pytest.raises(reproject.ReprojectError):
        reproject.ReprojectConfig(8, 8, 1.0, tau=-0.1).validate()
    with pytest.raises(reproject.ReprojectError):
        reproject.ReprojectConfig(8, 8, 1.0, tol=0.0).validate()
    with pytest.raises(reproject.ReprojectError):
        reproject.ReprojectConfig(8, 8, 1.0, max_iter=0).validate()


def test_termination_within_max_iter():
    img, _ = dataset.synth_iris(5, 96)
    sigma = raster.antialias_sigma(96, 96, 12, 12)
    lr, base = dataset.simulate_lr(img, 12, 12, sigma)
    cfg = reproject.ReprojectConfig(12, 12, sigma, max_iter=25)
    y, iters, converged = reproject.reproject(base, lr, cfg)
    assert iters <= 25
    if not converged:
        assert iters == 25


def test_fidelity_residual_decreases_on_seeds():
    # smaller slice of the corpus here; the full 20-seed sweep runs in
    # the acceptance suite
    for seed in range(4):
        img, _ = dataset.synth_iris(seed, 231)
        sigma = raster.antialias_sigma(231, 231, 15, 15)
        lr, base = dataset.simulate_lr(img, 15, 15, sigma)
        cfg = reproject.ReprojectConfig(15, 15, sigma)
        y, iters, converged = reproject.reproject(base, lr, cfg)
        r0 = np.abs(raster.degrade(base, 15, 15, sigma) - lr).mean()
        r1 = np.abs(raster.degrade(y, 15, 15, sigma) - lr).mean()
        assert r1 <= r0
        assert converged


def test_determinism():
    img, _ = dataset.synth_iris(6, 96)
    sigma = raster.antialias_sigma(96, 96, 16, 16)
    lr, base = dataset.simulate_lr(img, 16, 16, sigma)
    cfg = reproject.ReprojectConfig(16, 16, sigma, max_iter=60)
    y1, i1, c1 = reproject.reproject(base, lr, cfg)
    y2, i2, c2 = reproject.reproject(base, lr, cfg)
    assert i1 == i2 and c1 == c2
    assert np.array_equal(y1, y2)


def test_trace_records_every_iteration():
    img, _ = dataset.synth_iris(7, 64)
    sigma = raster.antialias_sigma(64, 64, 8, 8)
    lr, base = dataset.simulate_lr(img, 8, 8, sigma)
    trace = []
    cfg = reproject.ReprojectConfig(8, 8, sigma, max_iter=15)
    _, iters, _ = reproject.reproject(base, lr, cfg, trace=trace)
    assert len(trace) == iters
    assert all(d >= 0 for d in trace)


def _reference_reproject(y0, x, cfg):
    """The recurrence as first written, one HR degrade per iteration."""
    y = np.asarray(y0, dtype=np.float64).copy()
    hr_h, hr_w = y.shape
    # the degradation blur rescaled from HR to LR pixels
    inner_sigma = cfg.sigma * (cfg.lr_w / hr_w)
    trace = []
    iterations, converged = 0, False
    for _ in range(cfg.max_iter):
        iterations += 1
        residual = raster.degrade_linear(y, cfg.lr_w, cfg.lr_h, cfg.sigma) - x
        if inner_sigma > 0:
            residual = raster.gaussian_blur(residual, inner_sigma)
        step = raster.upsample_linear(residual, hr_w, hr_h)
        y_next = y - cfg.tau * step
        delta = float(np.mean(np.abs(y_next - y)))
        trace.append(delta)
        y = y_next
        if delta < cfg.tol:
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
])
def test_operator_form_matches_reference(seed, hr, lr, sigma, extra):
    hr_h, hr_w = hr
    lr_h, lr_w = lr
    img, _ = dataset.synth_iris(seed, max(hr))
    img = img[:hr_h, :hr_w]
    observed_sigma = raster.antialias_sigma(hr_w, hr_h, lr_w, lr_h)
    lr_img, _ = dataset.simulate_lr(img, lr_w, lr_h, observed_sigma)
    # a bilinear start is further from a fixed point than the bicubic baseline
    y0 = raster.resize_bilinear(lr_img, hr_w, hr_h)
    cfg = reproject.ReprojectConfig(
        lr_w, lr_h, observed_sigma if sigma is None else sigma, **extra)
    trace = []
    y, iters, converged = reproject.reproject(y0, lr_img, cfg, trace=trace)
    y_ref, iters_ref, converged_ref, trace_ref = _reference_reproject(
        y0, lr_img, cfg)
    assert iters == iters_ref and converged == converged_ref
    assert np.abs(np.array(trace) - np.array(trace_ref)).max() < 1e-12
    assert np.abs(y - y_ref).max() < 1e-12
    assert np.array_equal(np.rint(y * 255), np.rint(y_ref * 255))
