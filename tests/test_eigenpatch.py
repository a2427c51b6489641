import os
import re

import numpy as np
import pytest

from irissr import dataset, eigenpatch, quality, raster
from irissr.errors import InputError


def small_corpus(n=6, size=64):
    return [dataset.synth_iris(seed, size)[0] for seed in range(n)]


# --- grids --------------------------------------------------------------------

def _covers(offsets, side, extent):
    """Patches of `side` at `offsets` lie inside [0, extent) and cover all of it."""
    covered = np.zeros(extent, dtype=bool)
    for off in offsets:
        covered[off:off + side] = True
    return covered.all() and min(offsets) == 0 and max(offsets) + side == extent


def test_grid_covers_plane_with_clamped_tail():
    xs = eigenpatch.grid_positions(57)
    assert xs[0] == 0 and xs[-1] == 53
    assert _covers(xs, 4, 57)


def test_grid_rejects_plane_narrower_than_patch():
    with pytest.raises(InputError, match="patch size 4 exceeds plane extent 3"):
        eigenpatch.grid_positions(3)
    assert eigenpatch.grid_positions(4) == [0]


def test_patch_positions_row_major():
    positions = eigenpatch.patch_positions(8, 6)
    assert positions == [(0, 0), (2, 0), (4, 0), (0, 2), (2, 2), (4, 2)]


def test_hr_patches_cover_plane_without_gap():
    for lr in range(4, 232):
        side, offsets = eigenpatch.hr_offsets(lr, 231)
        assert _covers(offsets, side, 231), lr


# --- training -----------------------------------------------------------------

def test_train_rejects_plane_narrower_than_patch():
    with pytest.raises(InputError, match="patch size 4 exceeds plane extent 3"):
        eigenpatch.train(small_corpus(3), 3, 3, 1.0)


def test_train_rejects_empty_and_mismatched():
    with pytest.raises(InputError, match="empty training set"):
        eigenpatch.train([], 8, 8, 1.0)
    imgs = [np.zeros((32, 32)), np.zeros((32, 30))]
    with pytest.raises(InputError, match="training image dims differ"):
        eigenpatch.train(imgs, 8, 8, 1.0)


def test_train_rejects_lr_plane_above_hr_plane():
    for lr_w, lr_h in ((33, 16), (16, 33)):
        with pytest.raises(InputError, match="LR plane must not exceed the HR plane"):
            eigenpatch.train([np.zeros((32, 32))] * 3, lr_w, lr_h, 1.0)


def test_identical_training_set_is_degenerate():
    img = dataset.synth_iris(0, 64)[0]
    model = eigenpatch.train([img] * 5, 16, 16, 1.0)
    assert int(model.kcounts.max()) == 0
    # reconstruction ignores the input entirely
    rng = np.random.default_rng(0)
    out1 = eigenpatch.reconstruct(rng.uniform(size=(16, 16)), model)
    out2 = eigenpatch.reconstruct(np.zeros((16, 16)), model)
    assert np.array_equal(out1, out2)


def test_single_training_image():
    img = dataset.synth_iris(1, 64)[0]
    model = eigenpatch.train([img], 16, 16, 1.0)
    assert model.deviations.shape[0] == 1
    assert int(model.kcounts.max()) == 0
    lr = raster.degrade(img, 16, 16, 1.0)
    # mean_lr equals the single training patch
    x, y = eigenpatch.patch_positions(16, 16)[0]
    assert np.allclose(model.mean_lr[y:y + 4, x:x + 4], lr[y:y + 4, x:x + 4])


def test_two_image_eigenpatch_is_normalized_difference(monkeypatch):
    monkeypatch.setattr(eigenpatch, "VARIANCE_KEEP", 1.0)
    imgs = small_corpus(2)
    model = eigenpatch.train(imgs, 16, 16, 1.0)
    lrs = [raster.degrade(im, 16, 16, 1.0) for im in imgs]
    positions = eigenpatch.patch_positions(16, 16)
    for i in (0, len(positions) // 2):
        x, y = positions[i]
        p1 = lrs[0][y:y + 4, x:x + 4].ravel()
        p2 = lrs[1][y:y + 4, x:x + 4].ravel()
        diff = p1 - p2
        norm = np.linalg.norm(diff)
        if norm < 1e-8:
            continue
        e = model.eigen_patches(i)
        assert e.shape[1] == 1
        # analytic PCA of two points: the component is the normalized difference
        assert np.allclose(np.abs(e[:, 0]), np.abs(diff / norm), atol=1e-9)


def test_orthonormal_eigen_patches():
    model = eigenpatch.train(small_corpus(6), 16, 16, 1.0)
    for i in range(model.n_positions):
        e = model.eigen_patches(i)
        if e.shape[1]:
            gram = e.T @ e
            assert np.abs(gram - np.eye(e.shape[1])).max() < 1e-6


def test_exact_recovery_in_span(monkeypatch):
    # with truncation disabled, a training patch round-trips through the basis
    monkeypatch.setattr(eigenpatch, "VARIANCE_KEEP", 1.0)
    imgs = small_corpus(5)
    model = eigenpatch.train(imgs, 16, 16, 1.0)
    lr0 = raster.degrade(imgs[0], 16, 16, 1.0)
    positions = eigenpatch.patch_positions(16, 16)
    for i in (0, model.n_positions - 1):
        x, y = positions[i]
        patch = lr0[y:y + 4, x:x + 4].ravel()
        e = model.eigen_patches(i)
        centered = patch - model.mean_lr[y:y + 4, x:x + 4].ravel()
        w = e.T @ centered
        assert np.abs(e @ w - centered).max() < 1e-6


def test_mean_input_reconstructs_mean_stitching():
    imgs = small_corpus(4)
    model = eigenpatch.train(imgs, 16, 16, 1.0)
    # an LR image equal to mean_lr at every patch: the per-position means are
    # consistent (they come from the same mean image)
    mean_lr = np.mean([raster.degrade(im, 16, 16, 1.0) for im in imgs], axis=0)
    out = eigenpatch.reconstruct(mean_lr, model)
    mean_hr_img = np.clip(np.mean(imgs, axis=0), 0, 1)
    # uniform blending of mean_hr patches reproduces the mean HR image
    assert np.abs(out - mean_hr_img).max() < 1e-9


def test_in_training_reconstruction_beats_bicubic():
    imgs = [dataset.synth_iris(seed, 128)[0] for seed in range(8)]
    sigma = raster.antialias_sigma(128, 128, 32, 32)
    model = eigenpatch.train(imgs, 32, 32, sigma)
    for img in imgs[:3]:
        lr = raster.degrade(img, 32, 32, sigma)
        rec = eigenpatch.reconstruct(lr, model)
        base = raster.resize_bicubic(lr, 128, 128)
        assert quality.psnr(img, rec) >= quality.psnr(img, base)


def test_reconstruct_dims_checked():
    model = eigenpatch.train(small_corpus(3), 16, 16, 1.0)
    with pytest.raises(InputError,
                       match=re.escape("LR dims (16, 17) do not match model plane")):
        eigenpatch.reconstruct(np.zeros((17, 16)), model)


def test_reconstruction_deterministic():
    imgs = small_corpus(4)
    model = eigenpatch.train(imgs, 16, 16, 1.0)
    lr = raster.degrade(imgs[2], 16, 16, 1.0)
    assert np.array_equal(eigenpatch.reconstruct(lr, model),
                          eigenpatch.reconstruct(lr, model))


def _per_position_reconstruct(hr_images, lr_w, lr_h, sigma, lr):
    """The per-position model of the `epm-2` format, trained and applied to
    `lr` with its arithmetic: every patch position stores its own LR and HR
    means and the HR training patches' deviations (M, hd). Returns the K
    kept at each position and the reconstruction."""
    lr_images = [raster.degrade(im, lr_w, lr_h, sigma) for im in hr_images]
    hr_h, hr_w = hr_images[0].shape
    hp_w, hxs = eigenpatch.hr_offsets(lr_w, hr_w)
    hp_h, hys = eigenpatch.hr_offsets(lr_h, hr_h)
    positions = list(zip(eigenpatch.patch_positions(lr_w, lr_h),
                         [(x, y) for y in hys for x in hxs]))
    m = len(hr_images)
    trained = []
    for (x, y), (hx, hy) in positions:
        patches = np.stack([im[y:y + 4, x:x + 4].ravel() for im in lr_images])
        mean_lr = patches.mean(axis=0)
        xc = (patches - mean_lr).T
        hpat = np.stack([im[hy:hy + hp_h, hx:hx + hp_w].ravel() for im in hr_images])
        mean_hr = hpat.mean(axis=0)
        lam, vec = np.linalg.eigh(xc.T @ xc)
        order = np.argsort(lam)[::-1]
        lam = np.clip(lam[order], 0.0, None)
        vec = vec[:, order]
        total = lam.sum()
        k = min(int(np.searchsorted(np.cumsum(lam), eigenpatch.VARIANCE_KEEP * total))
                + 1, m - 1) if total > 0 else 0
        while k > 0 and lam[k - 1] <= eigenpatch.EIGENVALUE_FLOOR:
            k -= 1
        scaled = vec[:, :k] / np.sqrt(lam[:k])
        trained.append((mean_lr, mean_hr, hpat - mean_hr, xc @ scaled, scaled))

    # basis and coeffs zero-padded to the widest position, as they were stored
    kmax = max(1, max(t[4].shape[1] for t in trained))
    accum = np.zeros((hr_h, hr_w))
    count = np.zeros((hr_h, hr_w))
    for ((x, y), (hx, hy)), (mean_lr, mean_hr, hr_deviations, e, scaled) in zip(
            positions, trained):
        basis = np.zeros((16, kmax))
        coeffs = np.zeros((m, kmax))
        basis[:, :e.shape[1]] = e
        coeffs[:, :e.shape[1]] = scaled
        centered = lr[y:y + 4, x:x + 4].ravel() - mean_lr
        hr_patch = mean_hr + (coeffs @ (centered @ basis)) @ hr_deviations
        accum[hy:hy + hp_h, hx:hx + hp_w] += hr_patch.reshape(hp_h, hp_w)
        count[hy:hy + hp_h, hx:hx + hp_w] += 1.0
    return [t[4].shape[1] for t in trained], raster.clamp01(accum / count)


@pytest.mark.parametrize("m, lr_side", [(4, 57), (6, 57), (12, 115), (18, 29), (18, 15)])
def test_reconstruct_equals_per_position_model(m, lr_side):
    eyes = [dataset.synth_iris(seed, 231)[0] for seed in range(m + 1)]
    sigma = raster.antialias_sigma(231, 231, lr_side, lr_side)
    # an eye outside the training set, as `sr` reads it back from its PGM
    lr = np.rint(raster.degrade(eyes[m], lr_side, lr_side, sigma) * 255) / 255
    model = eigenpatch.train(eyes[:m], lr_side, lr_side, sigma)
    kcounts, expected = _per_position_reconstruct(eyes[:m], lr_side, lr_side, sigma, lr)
    assert model.kcounts.tolist() == kcounts
    # the blend sums the overlapping patches in another order than the
    # per-position loop, so the floats agree to rounding, not bit for bit
    assert np.abs(eigenpatch.reconstruct(lr, model) - expected).max() <= 1e-14


# --- persistence ----------------------------------------------------------------

def test_model_roundtrip(tmp_path):
    imgs = small_corpus(4)
    model = eigenpatch.train(imgs, 16, 16, 1.0)
    path = tmp_path / "model.npz"
    eigenpatch.save_model(path, model, "abc")
    back = eigenpatch.load_model(path, "abc")
    lr = raster.degrade(imgs[1], 16, 16, 1.0)
    assert np.array_equal(eigenpatch.reconstruct(lr, back),
                          eigenpatch.reconstruct(lr, model))


def test_saved_model_stores_each_training_image_once(tmp_path):
    eyes = [dataset.synth_iris(seed, 231)[0] for seed in range(4)]
    model = eigenpatch.train(eyes, 57, 57, raster.antialias_sigma(231, 231, 57, 57))
    path = tmp_path / "model.npz"
    eigenpatch.save_model(path, model, "abc")
    with np.load(path) as data:
        assert sorted(data.files) == ["basis", "coeffs", "deviations", "kcounts",
                                      "mean_hr", "mean_lr", "tag"]
        assert data["deviations"].shape == (4, 231, 231)
    assert path.stat().st_size < 3_000_000


def test_failed_save_leaves_previous_model(tmp_path, monkeypatch):
    model = eigenpatch.train(small_corpus(3), 16, 16, 1.0)
    path = tmp_path / "model.npz"
    eigenpatch.save_model(path, model, "abc")
    before = path.read_bytes()

    def interrupted(fh, **arrays):
        fh.write(b"PK partial")
        raise OSError("write interrupted")

    monkeypatch.setattr(np, "savez", interrupted)
    with pytest.raises(OSError, match="write interrupted"):
        eigenpatch.save_model(path, model, "abc")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.npz"]


def test_model_version_mismatch_rejected(tmp_path):
    # a model stored under another tag (other code, another degrade stage)
    # reads back as none, so the caller trains a new one
    model = eigenpatch.train(small_corpus(3), 16, 16, 1.0)
    path = tmp_path / "model.npz"
    eigenpatch.save_model(path, model, "abc")
    assert eigenpatch.load_model(path, "abd") is None
