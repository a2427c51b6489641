"""SIFT comparator: difference-of-Gaussians keypoints and 128-d descriptors,
computed directly on the iris crop (no unwrapping). The match score between
two images is the number of descriptors of the probe whose nearest neighbor
in the gallery passes Lowe's ratio test; higher = more similar.

The parameters are Lowe's (2004), fixed as the module constants below:
INTERVALS per octave from INITIAL_SIGMA over an ASSUMED_BLUR; octaves until
the smaller image dimension falls under MIN_OCTAVE_DIM, with no input
pre-doubling (iris crops are small); CONTRAST_THRESHOLD on [0,1] intensities,
EDGE_RATIO and BORDER for keypoints; ORIENTATION_BINS and PEAK_RATIO for
orientations; DESCRIPTOR_WIDTH, DESCRIPTOR_BINS, DESCRIPTOR_SCALE_MULT and
DESCRIPTOR_CLAMP for the 128-d descriptor; MATCH_RATIO for scoring.

The pyramid is built and consumed one octave at a time: extrema detection
runs on the octave's whole DoG stack and the Newton refinement on all its
candidates at once, after which the stack is dropped. As in the IPOL
reference ("Anatomy of the SIFT Method", Rey-Otero and Delbracio, 2014),
gradient magnitude and angle are computed once per Gaussian level that holds
a keypoint, one level at a time; each keypoint's orientation histogram and
descriptor are then built from slices of them, one `np.bincount` per
histogram. Each histogram bin sums its addends in a fixed order, and the
per-keypoint scalars (window radii, Gaussian widths, the rotation) are Python
floats, so results do not depend on how keypoints are grouped. Everything is
deterministic: candidates are visited in array order and the final list is
sorted by (octave, y, x, orientation), the first refined of exact duplicates
kept.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import raster
from .errors import InputError


INTERVALS = 3
INITIAL_SIGMA = 1.6
ASSUMED_BLUR = 0.5
CONTRAST_THRESHOLD = 0.03
EDGE_RATIO = 10.0
MIN_OCTAVE_DIM = 16
BORDER = 5
ORIENTATION_BINS = 36
PEAK_RATIO = 0.8
DESCRIPTOR_WIDTH = 4
DESCRIPTOR_BINS = 8
DESCRIPTOR_SCALE_MULT = 3.0
DESCRIPTOR_CLAMP = 0.2
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

def _build_pyramid(img: np.ndarray):
    """Gaussian and DoG pyramids, one octave at a time: yields each octave's
    (Gaussian levels, DoG stack), the stack holding no other reference, so a
    caller that drops it frees it."""
    s = INTERVALS
    k = 2.0 ** (1.0 / s)
    base_sigma = math.sqrt(max(INITIAL_SIGMA**2 - ASSUMED_BLUR**2, 0.01))
    level = raster.gaussian_blur(img, base_sigma)

    increments = []
    for l in range(1, s + 3):
        prev = INITIAL_SIGMA * k ** (l - 1)
        increments.append(math.sqrt((prev * k) ** 2 - prev**2))

    while min(level.shape) >= MIN_OCTAVE_DIM:
        levels = [level]
        for inc in increments:
            levels.append(raster.gaussian_blur(levels[-1], inc))
        yield levels, _dog_stack(levels)
        level = levels[s][::2, ::2]


def _dog_stack(levels: list) -> np.ndarray:
    """The differences of successive Gaussian levels as one stack, each
    written in place; built outside `_build_pyramid`'s frame, which would
    otherwise hold the stack while it waits at its yield."""
    dog = np.empty((len(levels) - 1,) + levels[0].shape)
    for layer, (a, b) in enumerate(zip(levels, levels[1:])):
        np.subtract(b, a, out=dog[layer])
    return dog


def _fold3(a: np.ndarray, op) -> np.ndarray:
    """`op` (np.maximum or np.minimum) over every 3x3x3 block of a 3-D array,
    one axis at a time; each axis shrinks by 2."""
    a = op(op(a[:-2], a[1:-1]), a[2:])
    a = op(op(a[:, :-2], a[:, 1:-1]), a[:, 2:])
    return op(op(a[:, :, :-2], a[:, :, 1:-1]), a[:, :, 2:])


def _candidate_extrema(dog: np.ndarray) -> np.ndarray:
    """Indices (layer, i, j) of 26-neighborhood extrema above the prefilter,
    in the inner layers and at least BORDER pixels from the edge. Every
    neighborhood there lies inside the stack, so no border rule is needed."""
    pre = 0.5 * CONTRAST_THRESHOLD / INTERVALS
    s, b = INTERVALS, BORDER
    _, h, w = dog.shape
    ring = dog[:, b - 1:h - b + 1, b - 1:w - b + 1]
    core = dog[1:s + 1, b:h - b, b:w - b]
    cand = ((core == _fold3(ring, np.maximum)) & (core > pre)) | \
        ((core == _fold3(ring, np.minimum)) & (core < -pre))
    return np.argwhere(cand) + (1, b, b)


def _refine_octave(dog: np.ndarray, cands: np.ndarray) -> list:
    """Sub-pixel Newton refinement of all candidates of one octave together.

    `cands` holds (layer, i, j) rows. Each step gathers the 27-neighbourhood
    terms of the candidates still moving, solves their 3x3 Hessians in one
    batch, accepts or rejects the converged ones and moves the others by the
    rounded offset, dropping those that leave the inner region; after 5 steps
    the rest are dropped. A singular Hessian drops its candidate. Returns the
    accepted (l, i, j, offset, value) in candidate order.
    """
    s, b = INTERVALS, BORDER
    r = EDGE_RATIO
    _, h, w = dog.shape
    flat = dog.reshape(-1)
    pos = np.asarray(cands, dtype=np.int64).reshape(-1, 3)
    order = np.arange(len(pos))
    accepted = []
    for _ in range(5):
        if not len(order):
            break
        base = (pos[:, 0] * h + pos[:, 1]) * w + pos[:, 2]

        def at(dl, di, dj):
            return flat[base + (dl * h + di) * w + dj]

        c = at(0, 0, 0)
        xp, xm, yp, ym = at(0, 0, 1), at(0, 0, -1), at(0, 1, 0), at(0, -1, 0)
        sp, sm = at(1, 0, 0), at(-1, 0, 0)
        grad = 0.5 * np.stack([xp - xm, yp - ym, sp - sm], axis=1)
        dxx = xp - 2 * c + xm
        dyy = yp - 2 * c + ym
        dss = sp - 2 * c + sm
        dxy = 0.25 * (at(0, 1, 1) - at(0, 1, -1) - at(0, -1, 1) + at(0, -1, -1))
        dxs = 0.25 * (at(1, 0, 1) - at(1, 0, -1) - at(-1, 0, 1) + at(-1, 0, -1))
        dys = 0.25 * (at(1, 1, 0) - at(1, -1, 0) - at(-1, 1, 0) + at(-1, -1, 0))
        hess = np.stack([dxx, dxy, dxs, dxy, dyy, dys, dxs, dys, dss],
                        axis=1).reshape(-1, 3, 3)
        solved = np.ones(len(order), dtype=bool)
        try:
            offset = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # the batch raises if any Hessian is singular: solve one by one
            offset = np.zeros_like(grad)
            for k in range(len(order)):
                try:
                    offset[k] = -np.linalg.solve(hess[k], grad[k])
                except np.linalg.LinAlgError:
                    solved[k] = False
        converged = solved & np.all(np.abs(offset) < 0.5, axis=1)
        for k in np.flatnonzero(converged):
            value = c[k] + 0.5 * float(grad[k] @ offset[k])
            if abs(value) * s < CONTRAST_THRESHOLD:
                continue
            # edge rejection on the spatial 2x2 Hessian
            tr = dxx[k] + dyy[k]
            det = dxx[k] * dyy[k] - dxy[k] * dxy[k]
            if det <= 0 or r * tr * tr >= (r + 1) ** 2 * det:
                continue
            l, i, j = (int(v) for v in pos[k])
            accepted.append((order[k], (l, i, j, offset[k], value)))
        moving = solved & ~converged
        # offsets are (x, y, scale); positions are (layer, i, j)
        moved = pos[moving] + np.rint(offset[moving][:, ::-1])
        keep = ((moved[:, 0] >= 1) & (moved[:, 0] <= s)
                & (moved[:, 1] >= b) & (moved[:, 1] < h - b)
                & (moved[:, 2] >= b) & (moved[:, 2] < w - b))
        pos = moved[keep].astype(np.int64)
        order = order[moving][keep]
    accepted.sort(key=lambda a: a[0])
    return [refined for _, refined in accepted]


def _gradients(level: np.ndarray):
    """Gradient magnitude and angle (arctan2, in (-pi, pi]) from central
    differences over the interior of one Gaussian level: entry [r - 1, c - 1]
    belongs to pixel (r, c)."""
    dx = 0.5 * (level[1:-1, 2:] - level[1:-1, :-2])
    dy = 0.5 * (level[2:, 1:-1] - level[:-2, 1:-1])
    return np.hypot(dx, dy), np.arctan2(dy, dx)


def _window(ic: int, jc: int, radius: int, mag: np.ndarray):
    """Pixel rows i0..i1 and columns j0..j1 of the box of `radius` around
    (ic, jc), clipped to the level interior, and the slice of the gradient
    arrays that covers it; None when the box is empty."""
    h, w = mag.shape[0] + 2, mag.shape[1] + 2
    i0, i1 = max(ic - radius, 1), min(ic + radius, h - 2)
    j0, j1 = max(jc - radius, 1), min(jc + radius, w - 2)
    if i0 > i1 or j0 > j1:
        return None
    return i0, i1, j0, j1, (slice(i0 - 1, i1), slice(j0 - 1, j1))


def _orientations(mag: np.ndarray, ang: np.ndarray, i: float, j: float,
                  sigma_oct: float):
    """Smoothed 36-bin gradient histogram peaks around (i, j), from the
    level's `_gradients`."""
    nbins = ORIENTATION_BINS
    sigma_w = 1.5 * sigma_oct
    radius = int(round(3.0 * sigma_w))
    ic, jc = int(round(i)), int(round(j))
    box = _window(ic, jc, radius, mag)
    if box is None:
        return []
    i0, i1, j0, j1, win = box
    d2 = (np.arange(i0, i1 + 1) - ic)[:, None] ** 2 \
        + (np.arange(j0, j1 + 1) - jc)[None, :] ** 2
    weight = np.exp(-d2 / (2.0 * sigma_w**2))
    bins = np.rint(ang[win] % (2.0 * math.pi) * nbins / (2.0 * math.pi)) \
        .astype(np.int64) % nbins
    hist = np.bincount(bins.ravel(), (mag[win] * weight).ravel(), minlength=nbins)

    n = np.arange(nbins)
    prev, nxt = n - 1, (n + 1) % nbins
    smooth = (6 * hist + 4 * (hist[prev] + hist[nxt])
              + hist[n - 2] + hist[(n + 2) % nbins]) / 16.0
    if smooth.max() <= 0:
        return []
    peak_floor = PEAK_RATIO * smooth.max()
    lv, rv = smooth[prev], smooth[nxt]
    peaks = np.flatnonzero((smooth > lv) & (smooth > rv) & (smooth >= peak_floor))
    lv, pv, rv = lv[peaks], smooth[peaks], rv[peaks]
    interp = (peaks + 0.5 * (lv - rv) / (lv - 2 * pv + rv)) % nbins
    return interp * 2.0 * math.pi / nbins


def _descriptor(mag: np.ndarray, ang: np.ndarray, i: float, j: float,
                sigma_oct: float, orientation: float) -> np.ndarray:
    """128-d descriptor at (i, j), from the level's `_gradients`. The 8
    trilinear corners go into one bincount, corner-major with pixels in
    row-major order, so every bin sums its addends in a fixed order."""
    d = DESCRIPTOR_WIDTH
    nbins = DESCRIPTOR_BINS
    hist_width = DESCRIPTOR_SCALE_MULT * sigma_oct
    h, w = mag.shape[0] + 2, mag.shape[1] + 2
    radius = int(round(hist_width * math.sqrt(2) * (d + 1) * 0.5))
    radius = min(radius, int(math.hypot(h, w)))
    ic, jc = int(round(i)), int(round(j))
    box = _window(ic, jc, radius, mag)
    if box is None:
        return np.zeros(d * d * nbins)
    i0, i1, j0, j1, win = box

    di = (np.arange(i0, i1 + 1) - i)[:, None]
    dj = (np.arange(j0, j1 + 1) - j)[None, :]
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
    value = mag[win][inside] * weight
    obin = ((ang[win][inside] - orientation) % (2.0 * math.pi)) * nbins / (2.0 * math.pi)

    r0 = np.floor(row_bin).astype(np.int64)
    c0 = np.floor(col_bin).astype(np.int64)
    o0 = np.floor(obin).astype(np.int64)
    rf = row_bin - r0
    cf = col_bin - c0
    of = obin - o0

    # corner (dr, dc, do) weights and flat bins of the (d+2, d+2, nbins) grid
    wr = value * np.array([1 - rf, rf])
    wc = wr[:, None] * np.array([1 - cf, cf])
    wo = wc[:, :, None] * np.array([1 - of, of])
    step = np.arange(2)[:, None]
    rc = (r0 + 1 + step)[:, None] * (d + 2) + (c0 + 1 + step)
    idx = (rc * nbins)[:, :, None] + (o0 + step) % nbins
    hist = np.bincount(idx.ravel(), wo.ravel(), minlength=(d + 2) ** 2 * nbins)

    vec = hist.reshape(d + 2, d + 2, nbins)[1:-1, 1:-1, :].ravel()
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec = np.minimum(vec / norm, DESCRIPTOR_CLAMP)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
    return vec


def detect_describe(img: np.ndarray, annulus: tuple | None = None):
    """Keypoints and descriptors for one image.

    `annulus` = (cx, cy, r_inner, r_outer) restricts output to the iris ring
    (keypoints are detected on the whole frame, then filtered by position).
    Returns (keypoints, descriptors) with descriptors as an (N, 128) array.
    """
    img = raster.as_image(img)
    if img.shape[0] < 32 or img.shape[1] < 32:
        raise InputError(f"image {img.shape[1]}x{img.shape[0]} too small for SIFT")

    # (octave, y, x, orientation, refine index, scale, response, descriptor);
    # among exact duplicates the first refined survives, whatever the order
    # in which levels are described
    records = []
    octave = 0
    # not enumerate(): its reused result tuple would keep the DoG stack alive
    for gauss, dog in _build_pyramid(img):
        refined = _refine_octave(dog, _candidate_extrema(dog))
        del dog
        scale_factor = 2.0 ** octave
        by_level = {}  # Gaussian level index -> its keypoints in refine order
        for n, (l, i, j, offset, value) in enumerate(refined):
            layer_cont = l + float(offset[2])
            layer_idx = int(np.clip(round(layer_cont), 0, INTERVALS + 2))
            by_level.setdefault(layer_idx, []).append(
                (n, layer_cont, i + float(offset[1]), j + float(offset[0]), value))
        for layer_idx, keypoints in by_level.items():
            # one level's gradients at a time, dropped when it is done
            mag, ang = _gradients(gauss[layer_idx])
            for n, layer_cont, fi, fj, value in keypoints:
                sigma_oct = INITIAL_SIGMA * 2.0 ** (layer_cont / INTERVALS)
                for theta in _orientations(mag, ang, fi, fj, sigma_oct):
                    desc = _descriptor(mag, ang, fi, fj, sigma_oct, theta)
                    records.append((
                        octave, fi * scale_factor, fj * scale_factor, theta, n,
                        sigma_oct * scale_factor, abs(value), desc,
                    ))
            del mag, ang
        octave += 1

    records.sort(key=lambda r: r[:5])
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

    keypoints = [Keypoint(x=r[2], y=r[1], scale=r[5], orientation=r[3],
                          response=r[6]) for r in unique]
    if unique:
        descriptors = np.stack([r[7] for r in unique])
    else:
        descriptors = np.zeros((0, DESCRIPTOR_WIDTH ** 2 * DESCRIPTOR_BINS))
    return keypoints, descriptors


def match_score(a: np.ndarray, b: np.ndarray) -> int:
    """Count of a-descriptors accepted by the MATCH_RATIO nearest/second-nearest
    ratio test.

    One-directional (a -> b); each probe descriptor counts at most once. Empty
    sets, or a gallery without a second neighbor, give 0.
    """
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
    accepted = nearest < (MATCH_RATIO * MATCH_RATIO) * second
    return int(accepted.sum())


def iris_annulus(ann) -> tuple:
    """(cx, cy, r_in, r_out) for restricting keypoints to the iris ring."""
    return (ann.px, ann.py, ann.pupil_radius, ann.iris_radius)


# ---------------------------------------------------------------------------
# per-image feature file
# ---------------------------------------------------------------------------

def save_features(path, keypoints, descriptors) -> None:
    """Write one image's features as `.npz` arrays: `keypoints`, one
    (x, y, scale, orientation, response) row each, and `descriptors`. The
    pipeline never reads them back; they are there for inspection."""
    kp = np.array([[k.x, k.y, k.scale, k.orientation, k.response]
                   for k in keypoints], dtype=np.float64).reshape(-1, 5)
    np.savez(path, keypoints=kp, descriptors=np.asarray(descriptors, dtype=np.float64))
