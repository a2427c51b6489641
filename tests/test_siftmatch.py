import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter, maximum_filter, minimum_filter

from irissr import dataset, raster, siftmatch
from irissr.errors import InputError
from irissr.siftmatch import Keypoint

# The references' own parameter values (Lowe 2004), written out rather than
# read from siftmatch's constants, so that a mistyped constant fails the
# equality tests instead of entering both sides of them.
REFERENCE_CONFIG = SimpleNamespace(
    intervals=3, initial_sigma=1.6, assumed_blur=0.5, contrast_threshold=0.03,
    edge_ratio=10.0, min_octave_dim=16, border=5, orientation_bins=36,
    peak_ratio=0.8, descriptor_width=4, descriptor_bins=8,
    descriptor_scale_mult=3.0, descriptor_clamp=0.2)


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
    with pytest.raises(InputError, match="image 16x16 too small for SIFT"):
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


def candidate_extrema_reference(dog, cfg=REFERENCE_CONFIG):
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
    img, _ = dataset.synth_iris(0, 231)
    stacks = list(siftmatch._build_pyramid(img)[1])
    stacks.append(siftmatch._build_pyramid(smooth_noise(7))[1][0])
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
    counts = []
    for dog in extrema_stacks():
        want = candidate_extrema_reference(dog)
        got = siftmatch._candidate_extrema(dog)
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
    with np.load(path) as data:
        assert sorted(data.files) == ["descriptors", "keypoints"]
        rows, stored = data["keypoints"], data["descriptors"]
    # columns x, y, scale, orientation, response; one row per keypoint
    expected = np.array([[k.x, k.y, k.scale, k.orientation, k.response] for k in kps])
    assert kps and np.array_equal(rows, expected)
    assert np.array_equal(stored, desc)


# ---------------------------------------------------------------------------
# reference: the per-candidate, per-window implementation that the batched
# refinement, the per-level gradients and the one-bincount histograms
# replaced, kept verbatim but for its parameters, which it takes from
# REFERENCE_CONFIG, and for its pyramid and extrema, which come from the
# copies here; keypoints and descriptors must stay equal to it
# ---------------------------------------------------------------------------

def build_pyramid_reference(img: np.ndarray, cfg=REFERENCE_CONFIG):
    """Gaussian and DoG pyramids. Returns (gauss_octaves, dog_octaves)."""
    s = cfg.intervals
    k = 2.0 ** (1.0 / s)
    base_sigma = math.sqrt(max(cfg.initial_sigma**2 - cfg.assumed_blur**2, 0.01))
    level = raster.gaussian_blur(img, base_sigma)

    increments = []
    for l in range(1, s + 3):
        prev = cfg.initial_sigma * k ** (l - 1)
        increments.append(math.sqrt((prev * k) ** 2 - prev**2))

    gauss_octaves = []
    dog_octaves = []
    while min(level.shape) >= cfg.min_octave_dim:
        levels = [level]
        for inc in increments:
            levels.append(raster.gaussian_blur(levels[-1], inc))
        gauss_octaves.append(levels)
        dog_octaves.append(np.stack([b - a for a, b in zip(levels, levels[1:])]))
        level = levels[s][::2, ::2]
    return gauss_octaves, dog_octaves


def _refine(dog: np.ndarray, l: int, i: int, j: int, cfg=REFERENCE_CONFIG):
    """Sub-pixel Newton refinement. Returns (l, i, j, offset, value) or None."""
    s = cfg.intervals
    b = cfg.border
    _, h, w = dog.shape
    for _ in range(5):
        cube = dog[l - 1:l + 2, i - 1:i + 2, j - 1:j + 2]
        grad = 0.5 * np.array([
            cube[1, 1, 2] - cube[1, 1, 0],
            cube[1, 2, 1] - cube[1, 0, 1],
            cube[2, 1, 1] - cube[0, 1, 1],
        ])
        c = cube[1, 1, 1]
        dxx = cube[1, 1, 2] - 2 * c + cube[1, 1, 0]
        dyy = cube[1, 2, 1] - 2 * c + cube[1, 0, 1]
        dss = cube[2, 1, 1] - 2 * c + cube[0, 1, 1]
        dxy = 0.25 * (cube[1, 2, 2] - cube[1, 2, 0] - cube[1, 0, 2] + cube[1, 0, 0])
        dxs = 0.25 * (cube[2, 1, 2] - cube[2, 1, 0] - cube[0, 1, 2] + cube[0, 1, 0])
        dys = 0.25 * (cube[2, 2, 1] - cube[2, 0, 1] - cube[0, 2, 1] + cube[0, 0, 1])
        hess = np.array([[dxx, dxy, dxs], [dxy, dyy, dys], [dxs, dys, dss]])
        try:
            offset = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return None
        if np.all(np.abs(offset) < 0.5):
            value = c + 0.5 * float(grad @ offset)
            if abs(value) * s < cfg.contrast_threshold:
                return None
            # edge rejection on the spatial 2x2 Hessian
            tr = dxx + dyy
            det = dxx * dyy - dxy * dxy
            r = cfg.edge_ratio
            if det <= 0 or r * tr * tr >= (r + 1) ** 2 * det:
                return None
            return l, i, j, offset, value
        j += int(round(offset[0]))
        i += int(round(offset[1]))
        l += int(round(offset[2]))
        if not (1 <= l <= s and b <= i < h - b and b <= j < w - b):
            return None
    return None


def _orientations(gauss: np.ndarray, i: float, j: float, sigma_oct: float,
                  cfg=REFERENCE_CONFIG):
    """Smoothed 36-bin gradient histogram peaks around (i, j)."""
    nbins = cfg.orientation_bins
    sigma_w = 1.5 * sigma_oct
    radius = int(round(3.0 * sigma_w))
    h, w = gauss.shape
    ic, jc = int(round(i)), int(round(j))
    i0, i1 = max(ic - radius, 1), min(ic + radius, h - 2)
    j0, j1 = max(jc - radius, 1), min(jc + radius, w - 2)
    if i0 > i1 or j0 > j1:
        return []
    block = gauss[i0 - 1:i1 + 2, j0 - 1:j1 + 2]
    dx = 0.5 * (block[1:-1, 2:] - block[1:-1, :-2])
    dy = 0.5 * (block[2:, 1:-1] - block[:-2, 1:-1])
    mag = np.hypot(dx, dy)
    ang = np.arctan2(dy, dx) % (2.0 * math.pi)
    yy, xx = np.mgrid[i0:i1 + 1, j0:j1 + 1]
    weight = np.exp(-((yy - ic) ** 2 + (xx - jc) ** 2) / (2.0 * sigma_w**2))
    bins = np.rint(ang * nbins / (2.0 * math.pi)).astype(np.int64) % nbins
    hist = np.zeros(nbins)
    np.add.at(hist, bins.ravel(), (mag * weight).ravel())

    smooth = np.empty(nbins)
    for n in range(nbins):
        smooth[n] = (6 * hist[n]
                     + 4 * (hist[n - 1] + hist[(n + 1) % nbins])
                     + hist[n - 2] + hist[(n + 2) % nbins]) / 16.0
    peak_floor = cfg.peak_ratio * smooth.max()
    if smooth.max() <= 0:
        return []
    out = []
    left = np.roll(smooth, 1)
    right = np.roll(smooth, -1)
    for n in np.nonzero((smooth > left) & (smooth > right)
                        & (smooth >= peak_floor))[0]:
        lv, pv, rv = smooth[n - 1], smooth[n], smooth[(n + 1) % nbins]
        interp = (n + 0.5 * (lv - rv) / (lv - 2 * pv + rv)) % nbins
        out.append(interp * 2.0 * math.pi / nbins)
    return out


def _descriptor(gauss: np.ndarray, i: float, j: float, sigma_oct: float,
                orientation: float, cfg=REFERENCE_CONFIG) -> np.ndarray:
    d = cfg.descriptor_width
    nbins = cfg.descriptor_bins
    hist_width = cfg.descriptor_scale_mult * sigma_oct
    h, w = gauss.shape
    radius = int(round(hist_width * math.sqrt(2) * (d + 1) * 0.5))
    radius = min(radius, int(math.hypot(h, w)))
    ic, jc = int(round(i)), int(round(j))
    i0, i1 = max(ic - radius, 1), min(ic + radius, h - 2)
    j0, j1 = max(jc - radius, 1), min(jc + radius, w - 2)
    if i0 > i1 or j0 > j1:
        return np.zeros(d * d * nbins)

    block = gauss[i0 - 1:i1 + 2, j0 - 1:j1 + 2]
    gx = 0.5 * (block[1:-1, 2:] - block[1:-1, :-2])
    gy = 0.5 * (block[2:, 1:-1] - block[:-2, 1:-1])
    mag = np.hypot(gx, gy)
    ang = np.arctan2(gy, gx)

    yy, xx = np.mgrid[i0:i1 + 1, j0:j1 + 1]
    di = yy - i
    dj = xx - j
    cos_t = math.cos(orientation)
    sin_t = math.sin(orientation)
    rot_r = (-dj * sin_t + di * cos_t) / hist_width
    rot_c = (dj * cos_t + di * sin_t) / hist_width
    row_bin = rot_r + 0.5 * d - 0.5
    col_bin = rot_c + 0.5 * d - 0.5
    inside = (row_bin > -1) & (row_bin < d) & (col_bin > -1) & (col_bin < d)
    if not np.any(inside):
        return np.zeros(d * d * nbins)

    row_bin = row_bin[inside]
    col_bin = col_bin[inside]
    weight = np.exp(-(rot_r[inside] ** 2 + rot_c[inside] ** 2)
                    / (2.0 * (0.5 * d) ** 2))
    value = mag[inside] * weight
    obin = ((ang[inside] - orientation) % (2.0 * math.pi)) * nbins / (2.0 * math.pi)

    r0 = np.floor(row_bin).astype(np.int64)
    c0 = np.floor(col_bin).astype(np.int64)
    o0 = np.floor(obin).astype(np.int64)
    rf = row_bin - r0
    cf = col_bin - c0
    of = obin - o0

    hist = np.zeros((d + 2, d + 2, nbins))
    for dr in (0, 1):
        wr = value * (rf if dr else (1 - rf))
        for dc in (0, 1):
            wc = wr * (cf if dc else (1 - cf))
            for do in (0, 1):
                wo = wc * (of if do else (1 - of))
                np.add.at(hist, (r0 + 1 + dr, c0 + 1 + dc, (o0 + do) % nbins), wo)

    vec = hist[1:-1, 1:-1, :].ravel()
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec = np.minimum(vec / norm, cfg.descriptor_clamp)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
    return vec


def detect_describe(img: np.ndarray, cfg=REFERENCE_CONFIG,
                    annulus: tuple | None = None):
    """Keypoints and descriptors for one image.

    `annulus` = (cx, cy, r_inner, r_outer) restricts output to the iris ring
    (keypoints are detected on the whole frame, then filtered by position).
    Returns (keypoints, descriptors) with descriptors as an (N, 128) array.
    """
    img = raster.as_image(img)
    if img.shape[0] < 32 or img.shape[1] < 32:
        raise InputError(f"image {img.shape[1]}x{img.shape[0]} too small for SIFT")

    gauss_octaves, dog_octaves = build_pyramid_reference(img, cfg)
    records = []  # (octave, y, x, orientation, scale, response, descriptor)

    for octave, dog in enumerate(dog_octaves):
        gauss = gauss_octaves[octave]
        scale_factor = 2.0 ** octave
        for l0, i0, j0 in candidate_extrema_reference(dog, cfg):
            refined = _refine(dog, int(l0), int(i0), int(j0), cfg)
            if refined is None:
                continue
            l, i, j, offset, value = refined
            layer_cont = l + float(offset[2])
            sigma_oct = cfg.initial_sigma * 2.0 ** (layer_cont / cfg.intervals)
            fi = i + float(offset[1])
            fj = j + float(offset[0])
            layer_idx = int(np.clip(round(layer_cont), 0, cfg.intervals + 2))
            glevel = gauss[layer_idx]
            for theta in _orientations(glevel, fi, fj, sigma_oct, cfg):
                desc = _descriptor(glevel, fi, fj, sigma_oct, theta, cfg)
                records.append((
                    octave, fi * scale_factor, fj * scale_factor, theta,
                    sigma_oct * scale_factor, abs(value), desc,
                ))

    records.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    # drop exact duplicates (same extremum reached from adjacent start cells)
    unique = []
    last_key = None
    for rec in records:
        key = rec[:4]
        if key != last_key:
            unique.append(rec)
            last_key = key

    if annulus is not None:
        cx, cy, r_in, r_out = annulus
        unique = [r for r in unique
                  if r_in <= math.hypot(r[2] - cx, r[1] - cy) <= r_out]

    keypoints = [Keypoint(x=r[2], y=r[1], scale=r[4], orientation=r[3],
                          response=r[5]) for r in unique]
    if unique:
        descriptors = np.stack([r[6] for r in unique])
    else:
        descriptors = np.zeros((0, cfg.descriptor_width ** 2 * cfg.descriptor_bins))
    return keypoints, descriptors


def equality_images():
    """Synthetic eyes at full size and bicubic 1/4 and 1/16 (quantised to 8
    bits, as the pipeline's PGM files are), with and without jitter, plus
    smoothed noise, square and not, and a flat image."""
    images = {}
    for seed, jitter in ((0, 0), (1, 1)):
        eye, _ = dataset.synth_iris(seed, 231, jitter=jitter)
        images[f"eye{seed}-j{jitter}"] = eye
        for lr in (57, 15):
            sigma = raster.antialias_sigma(231, 231, lr, lr)
            baseline = raster.resize_bicubic(dataset.simulate_lr(eye, lr, lr, sigma), 231, 231)
            images[f"eye{seed}-j{jitter}-{lr}"] = np.round(baseline * 255) / 255
    images["smooth-noise"] = smooth_noise(6)
    images["smooth-noise-160"] = smooth_noise(8, size=160, blur=1.5)
    noise = gaussian_filter(np.random.default_rng(5).uniform(size=(97, 64)), 1.5)
    images["smooth-noise-97x64"] = noise
    images["flat"] = np.full((64, 64), 0.5)
    return images


EQUALITY_IMAGES = equality_images()


@pytest.mark.parametrize("name", sorted(EQUALITY_IMAGES))
def test_detect_describe_equals_reference(name):
    img = EQUALITY_IMAGES[name]
    want_kps, want_desc = detect_describe(img)
    got_kps, got_desc = siftmatch.detect_describe(img)
    assert got_kps == want_kps
    assert np.array_equal(got_desc, want_desc)
    assert bool(got_kps) == (name != "flat")


def test_refine_octave_equals_per_candidate_refine():
    cfg = REFERENCE_CONFIG
    dog = siftmatch._build_pyramid(dataset.synth_iris(2, 231)[0])[1][0].copy()
    # a flat 3x3x3 cube: its centre's Hessian is zero, so the batched solve
    # of the first step raises and the step is solved one candidate at a time
    dog[1:4, 39:42, 59:62] = dog[2, 40, 60]
    singular = (2, 40, 60)
    assert _refine(dog, *singular, cfg) is None
    rng = np.random.default_rng(0)
    _, h, w = dog.shape
    b = cfg.border
    scattered = np.column_stack([rng.integers(1, cfg.intervals + 1, 200),
                                 rng.integers(b, h - b, 200),
                                 rng.integers(b, w - b, 200)])
    cands = np.vstack([siftmatch._candidate_extrema(dog), [singular], scattered])
    want = [r for r in (_refine(dog, int(l), int(i), int(j), cfg)
                        for l, i, j in cands) if r is not None]
    got = siftmatch._refine_octave(dog, cands)
    assert len(want) > 20 and len(got) == len(want)
    for (gl, gi, gj, goff, gval), (wl, wi, wj, woff, wval) in zip(got, want):
        assert (gl, gi, gj) == (wl, wi, wj)
        assert np.array_equal(goff, woff) and gval == wval
