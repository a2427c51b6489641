import math

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter, maximum_filter, minimum_filter

from irissr import dataset, siftmatch


def smooth_noise(seed, size=96, blur=1.2):
    t = gaussian_filter(np.random.default_rng(seed).uniform(size=(size, size)), blur)
    return (t - t.min()) / (t.max() - t.min())


def blob_image(sigma_b, n=96, amp=0.5, bg=0.2):
    ys, xs = np.mgrid[0:n, 0:n].astype(float)
    c = (n - 1) / 2.0
    return bg + amp * np.exp(-((xs - c) ** 2 + (ys - c) ** 2) / (2 * sigma_b**2))


def test_constant_image_no_keypoints():
    kps, desc = siftmatch.detect_describe(np.full((64, 64), 0.5))
    assert kps == []
    assert desc.shape == (0, 128)


def test_too_small_rejected():
    with pytest.raises(siftmatch.SiftError):
        siftmatch.detect_describe(np.zeros((16, 16)))


@pytest.mark.parametrize("sigma_b", [3.0, 5.0, 8.0])
def test_gaussian_blob_single_dominant_keypoint(sigma_b):
    img = blob_image(sigma_b)
    kps, _ = siftmatch.detect_describe(img)
    assert kps
    # all detections collapse to one location (orientation duplicates aside)
    locations = {(round(k.x, 2), round(k.y, 2), round(k.scale, 2)) for k in kps}
    assert len(locations) == 1
    dominant = max(kps, key=lambda k: k.response)
    center = (96 - 1) / 2.0
    assert math.hypot(dominant.x - center, dominant.y - center) <= 1.5
    assert abs(dominant.scale - sigma_b) / sigma_b <= 0.25


def candidate_extrema_reference(dog, cfg):
    """The scipy form the slice folds replaced: 3x3x3 max/min filters with
    replicated borders over the whole stack, then the inner-region mask."""
    pre = 0.5 * cfg.contrast_threshold / cfg.intervals
    is_max = (dog == maximum_filter(dog, size=3, mode="nearest")) & (dog > pre)
    is_min = (dog == minimum_filter(dog, size=3, mode="nearest")) & (dog < -pre)
    cand = is_max | is_min
    b = cfg.border
    keep = np.zeros_like(cand)
    keep[1:cfg.intervals + 1, b:dog.shape[1] - b, b:dog.shape[2] - b] = \
        cand[1:cfg.intervals + 1, b:dog.shape[1] - b, b:dog.shape[2] - b]
    return np.argwhere(keep)


def extrema_stacks():
    cfg = siftmatch.DEFAULT_CONFIG
    img, _ = dataset.synth_iris(0, 231)
    stacks = list(siftmatch._build_pyramid(img, cfg)[1])
    stacks.append(siftmatch._build_pyramid(smooth_noise(7), cfg)[1][0])
    rng = np.random.default_rng(3)
    # coarse quantisation: many equal neighbours, so ties decide
    stacks.append(np.round(rng.normal(0.0, 0.02, size=(5, 40, 37)), 2))
    # flat plateaus above and below the prefilter, and a lone peak on one
    plateau = np.zeros((5, 30, 30))
    plateau[1:4, 8:20, 8:20] = 0.05
    plateau[2, 14, 14] = 0.06
    plateau[1:4, 20:26, 6:12] = -0.05
    stacks += [plateau, np.zeros((5, 16, 16))]
    return stacks


def test_candidate_extrema_equal_scipy_filters():
    cfg = siftmatch.DEFAULT_CONFIG
    counts = []
    for dog in extrema_stacks():
        want = candidate_extrema_reference(dog, cfg)
        got = siftmatch._candidate_extrema(dog, cfg)
        assert got.dtype == want.dtype and np.array_equal(got, want), dog.shape
        counts.append(len(want))
    assert min(counts) == 0 and max(counts) > 100


def test_detect_describe_deterministic():
    img = smooth_noise(0)
    k1, d1 = siftmatch.detect_describe(img)
    k2, d2 = siftmatch.detect_describe(img)
    assert k1 == k2
    assert np.array_equal(d1, d2)


def test_keypoints_in_bounds_with_valid_fields():
    img = smooth_noise(1)
    kps, _ = siftmatch.detect_describe(img)
    assert kps
    assert all(0 <= k.x < 96 and 0 <= k.y < 96 for k in kps)
    assert all(k.scale > 0 for k in kps)
    assert all(0 <= k.orientation < 2 * math.pi for k in kps)


def test_descriptor_invariants():
    img = smooth_noise(2)
    _, desc = siftmatch.detect_describe(img)
    assert desc.shape[1] == 128
    assert np.all(desc >= 0)
    norms = np.linalg.norm(desc, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6


def test_translation_equivariance():
    base = smooth_noise(5, size=160, blur=1.5)
    dx, dy = 8, 12
    shifted = np.roll(np.roll(base, dy, axis=0), dx, axis=1)
    k1, _ = siftmatch.detect_describe(base)
    k2, _ = siftmatch.detect_describe(shifted)
    margin = 28
    interior = [k for k in k2 if margin <= k.x - dx <= 160 - margin
                and margin <= k.y - dy <= 160 - margin]
    assert len(interior) >= 20
    matched = sum(
        min(math.hypot(k.x - dx - q.x, k.y - dy - q.y) for q in k1) <= 0.5
        for k in interior)
    assert matched / len(interior) >= 0.9


def test_match_score_empty_and_tiny_gallery():
    rng = np.random.default_rng(0)
    a = rng.uniform(size=(5, 128))
    assert siftmatch.match_score(a, np.zeros((0, 128))) == 0
    assert siftmatch.match_score(np.zeros((0, 128)), a) == 0
    assert siftmatch.match_score(a, a[:1]) == 0  # no second neighbor


def test_match_score_counts_each_probe_once():
    rng = np.random.default_rng(1)
    a = rng.uniform(size=(7, 128))
    b = rng.uniform(size=(30, 128))
    assert siftmatch.match_score(a, b) <= 7


def test_self_match_counts_distinct_second_neighbors():
    # pinned from the oracle run: on seeded smooth textures at least 90% of
    # descriptors self-match (d1 = 0 against themselves, ratio accepts)
    for seed in (3, 4):
        _, desc = siftmatch.detect_describe(smooth_noise(seed))
        assert len(desc) >= 10
        score = siftmatch.match_score(desc, desc)
        assert score >= 0.9 * len(desc)


def test_cross_seed_match_rate_low():
    # 50 independently seeded texture pairs, drawn from 20 cached feature
    # sets; 160px textures give 49-94 keypoints each, enough for the 5%
    # bound to be meaningful (measured worst fraction: 0.032)
    feats = [siftmatch.detect_describe(smooth_noise(100 + s, size=160))[1]
             for s in range(20)]
    rng = np.random.default_rng(9)
    for _ in range(50):
        i, j = rng.choice(20, size=2, replace=False)
        a, b = feats[int(i)], feats[int(j)]
        assert siftmatch.match_score(a, b) <= 0.05 * min(len(a), len(b))


def test_annulus_filter(corpus20):
    img, ann = corpus20[0]
    all_kps, _ = siftmatch.detect_describe(img)
    ring_kps, _ = siftmatch.detect_describe(img, annulus=siftmatch.iris_annulus(ann))
    assert len(ring_kps) <= len(all_kps)
    for k in ring_kps:
        d = math.hypot(k.x - ann.px, k.y - ann.py)
        assert ann.pupil_radius <= d <= ann.iris_radius


def test_feature_cache_roundtrip(tmp_path):
    img = smooth_noise(6)
    kps, desc = siftmatch.detect_describe(img)
    path = tmp_path / "feat.npz"
    siftmatch.save_features(path, kps, desc)
    kps2, desc2 = siftmatch.load_features(path)
    assert kps2 == kps
    assert np.array_equal(desc2, desc)
