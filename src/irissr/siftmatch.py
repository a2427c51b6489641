"""SIFT comparator: difference-of-Gaussians keypoints and 128-d descriptors,
computed directly on the iris crop (no unwrapping). The match score between
two images is the number of descriptors of the probe whose nearest neighbor
in the gallery passes Lowe's ratio test; higher = more similar.

Implementation notes: 3 intervals per octave, octaves until the smaller image
dimension falls under 16 px, no input pre-doubling (iris crops are small),
contrast threshold on [0,1] intensities. Extrema detection is vectorized;
refinement, orientation assignment and descriptor pooling run per candidate.
Everything is deterministic: candidates are visited in array order and the
final list is sorted by (octave, y, x, orientation).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import raster
from .errors import InputError


class SiftError(InputError):
    pass


@dataclass(frozen=True)
class SiftConfig:
    intervals: int = 3
    initial_sigma: float = 1.6
    assumed_blur: float = 0.5
    contrast_threshold: float = 0.03
    edge_ratio: float = 10.0
    min_octave_dim: int = 16
    border: int = 5
    orientation_bins: int = 36
    peak_ratio: float = 0.8
    descriptor_width: int = 4
    descriptor_bins: int = 8
    descriptor_scale_mult: float = 3.0
    descriptor_clamp: float = 0.2


DEFAULT_CONFIG = SiftConfig()

MATCH_RATIO = 0.8
SCORE_POLARITY = "genuine_high"


@dataclass(frozen=True)
class Keypoint:
    x: float
    y: float
    scale: float
    orientation: float  # radians in [0, 2pi)
    response: float


# ---------------------------------------------------------------------------
# scale space
# ---------------------------------------------------------------------------

def _build_pyramid(img: np.ndarray, cfg: SiftConfig):
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


def _fold3(a: np.ndarray, op) -> np.ndarray:
    """`op` (np.maximum or np.minimum) over every 3x3x3 block of a 3-D array,
    one axis at a time; each axis shrinks by 2."""
    a = op(op(a[:-2], a[1:-1]), a[2:])
    a = op(op(a[:, :-2], a[:, 1:-1]), a[:, 2:])
    return op(op(a[:, :, :-2], a[:, :, 1:-1]), a[:, :, 2:])


def _candidate_extrema(dog: np.ndarray, cfg: SiftConfig) -> np.ndarray:
    """Indices (layer, i, j) of 26-neighborhood extrema above the prefilter,
    in the inner layers and at least `border` pixels from the edge. Every
    neighborhood there lies inside the stack, so no border rule is needed."""
    pre = 0.5 * cfg.contrast_threshold / cfg.intervals
    s, b = cfg.intervals, cfg.border
    _, h, w = dog.shape
    ring = dog[:, b - 1:h - b + 1, b - 1:w - b + 1]
    core = dog[1:s + 1, b:h - b, b:w - b]
    cand = ((core == _fold3(ring, np.maximum)) & (core > pre)) | \
        ((core == _fold3(ring, np.minimum)) & (core < -pre))
    return np.argwhere(cand) + (1, b, b)


def _refine(dog: np.ndarray, l: int, i: int, j: int, cfg: SiftConfig):
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
                  cfg: SiftConfig):
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
                orientation: float, cfg: SiftConfig) -> np.ndarray:
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


def detect_describe(img: np.ndarray, cfg: SiftConfig = DEFAULT_CONFIG,
                    annulus: tuple | None = None):
    """Keypoints and descriptors for one image.

    `annulus` = (cx, cy, r_inner, r_outer) restricts output to the iris ring
    (keypoints are detected on the whole frame, then filtered by position).
    Returns (keypoints, descriptors) with descriptors as an (N, 128) array.
    """
    img = raster.as_image(img)
    if img.shape[0] < 32 or img.shape[1] < 32:
        raise SiftError(f"image {img.shape[1]}x{img.shape[0]} too small for SIFT")

    gauss_octaves, dog_octaves = _build_pyramid(img, cfg)
    records = []  # (octave, y, x, orientation, scale, response, descriptor)

    for octave, dog in enumerate(dog_octaves):
        gauss = gauss_octaves[octave]
        scale_factor = 2.0 ** octave
        for l0, i0, j0 in _candidate_extrema(dog, cfg):
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


def match_score(a: np.ndarray, b: np.ndarray, ratio: float = MATCH_RATIO) -> int:
    """Count of a-descriptors accepted by the nearest/second-nearest ratio test.

    One-directional (a -> b); each probe descriptor counts at most once. Empty
    sets, or a gallery without a second neighbor, give 0.
    """
    if not (0 < ratio <= 1):
        raise SiftError(f"ratio must be in (0, 1], got {ratio}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.shape[0] < 2:
        return 0
    d2 = np.maximum(
        (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
        - 2.0 * (a @ b.T),
        0.0,
    )
    two = np.partition(d2, 1, axis=1)[:, :2]
    nearest = np.minimum(two[:, 0], two[:, 1])
    second = np.maximum(two[:, 0], two[:, 1])
    accepted = nearest < (ratio * ratio) * second
    return int(accepted.sum())


def iris_annulus(ann) -> tuple:
    """(cx, cy, r_in, r_out) for restricting keypoints to the iris ring."""
    return (ann.px, ann.py, ann.pupil_radius, ann.iris_radius)


# ---------------------------------------------------------------------------
# per-image feature cache
# ---------------------------------------------------------------------------

_CACHE_VERSION = 1


def save_features(path, keypoints, descriptors) -> None:
    kp = np.array([[k.x, k.y, k.scale, k.orientation, k.response]
                   for k in keypoints], dtype=np.float64).reshape(-1, 5)
    np.savez(path, version=np.int64(_CACHE_VERSION), keypoints=kp,
             descriptors=np.asarray(descriptors, dtype=np.float64))


def load_features(path):
    with np.load(path) as data:
        if int(data["version"]) != _CACHE_VERSION:
            raise SiftError(f"{path}: unsupported feature cache version")
        kp = data["keypoints"]
        desc = data["descriptors"]
    keypoints = [Keypoint(x=row[0], y=row[1], scale=row[2], orientation=row[3],
                          response=row[4]) for row in kp]
    return keypoints, desc
