import json

import numpy as np
import pytest

from irissr import dataset, eigenpatch, quality, raster


def small_corpus(n=6, size=64):
    return [dataset.synth_iris(seed, size)[0] for seed in range(n)]


# --- grids --------------------------------------------------------------------

def test_grid_covers_plane_with_clamped_tail():
    xs = eigenpatch.grid_positions(57, 4, 2)
    assert xs[0] == 0 and xs[-1] == 53
    covered = np.zeros(57, dtype=bool)
    for x in xs:
        covered[x:x + 4] = True
    assert covered.all()


def test_grid_rejects_bad_stride():
    with pytest.raises(eigenpatch.EigenPatchError):
        eigenpatch.grid_positions(8, 4, 5)
    with pytest.raises(eigenpatch.EigenPatchError):
        eigenpatch.grid_positions(8, 4, 0)


def test_patch_positions_row_major():
    positions = eigenpatch.patch_positions(8, 6, 4, 2)
    assert positions == [(0, 0), (2, 0), (4, 0), (0, 2), (2, 2), (4, 2)]


# --- training -----------------------------------------------------------------

def test_train_rejects_empty_and_mismatched():
    with pytest.raises(eigenpatch.EigenPatchError):
        eigenpatch.train([], 8, 8, 1.0)
    imgs = [np.zeros((32, 32)), np.zeros((32, 30))]
    with pytest.raises(eigenpatch.EigenPatchError):
        eigenpatch.train(imgs, 8, 8, 1.0)


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
    assert model.n_train == 1
    assert int(model.kcounts.max()) == 0
    lr = raster.degrade(img, 16, 16, 1.0)
    # mean_lr equals the single training patch
    x, y = model.positions_lr[0]
    assert np.allclose(model.means_lr[0], lr[y:y + 4, x:x + 4].ravel())


def test_two_image_eigenpatch_is_normalized_difference():
    imgs = small_corpus(2)
    model = eigenpatch.train(imgs, 16, 16, 1.0, variance_keep=1.0)
    lrs = [raster.degrade(im, 16, 16, 1.0) for im in imgs]
    for i in (0, len(model.positions_lr) // 2):
        x, y = model.positions_lr[i]
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


def test_exact_recovery_in_span():
    # with truncation disabled, a training patch round-trips through the basis
    imgs = small_corpus(5)
    model = eigenpatch.train(imgs, 16, 16, 1.0, variance_keep=1.0)
    lr0 = raster.degrade(imgs[0], 16, 16, 1.0)
    for i in (0, model.n_positions - 1):
        x, y = model.positions_lr[i]
        patch = lr0[y:y + 4, x:x + 4].ravel()
        e = model.eigen_patches(i)
        centered = patch - model.means_lr[i]
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
        base = raster.upsample(lr, 128, 128)
        assert quality.psnr(img, rec) >= quality.psnr(img, base)


def test_reconstruct_dims_checked():
    model = eigenpatch.train(small_corpus(3), 16, 16, 1.0)
    with pytest.raises(eigenpatch.EigenPatchError):
        eigenpatch.reconstruct(np.zeros((17, 16)), model)


def test_reconstruction_deterministic():
    imgs = small_corpus(4)
    model = eigenpatch.train(imgs, 16, 16, 1.0)
    lr = raster.degrade(imgs[2], 16, 16, 1.0)
    assert np.array_equal(eigenpatch.reconstruct(lr, model),
                          eigenpatch.reconstruct(lr, model))


# --- persistence ----------------------------------------------------------------

def test_model_roundtrip(tmp_path):
    imgs = small_corpus(4)
    model = eigenpatch.train(imgs, 16, 16, 1.0, provenance="abc")
    path = tmp_path / "model.npz"
    eigenpatch.save_model(path, model)
    back = eigenpatch.load_model(path)
    assert back.provenance == "abc"
    lr = raster.degrade(imgs[1], 16, 16, 1.0)
    assert np.array_equal(eigenpatch.reconstruct(lr, back),
                          eigenpatch.reconstruct(lr, model))


def test_model_version_mismatch_rejected(tmp_path):
    model = eigenpatch.train(small_corpus(3), 16, 16, 1.0)
    path = tmp_path / "model.npz"
    eigenpatch.save_model(path, model)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta["version"] = "epm-0"
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(eigenpatch.EigenPatchError, match="unsupported model version"):
        eigenpatch.load_model(path)
