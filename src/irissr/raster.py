"""Grayscale rasters and the resampling / blur operators of the degradation model.

Images are 2-D float64 arrays with intensities in [0, 1], shape (height, width).
All operators here are pure functions; nothing mutates its input.
`read_pgm` and `write_pgm` convert between these arrays and the samples of
the standard-library PGM codec in `pgm`, which does all the file parsing.

Conventions fixed for the whole package:
  * resampling uses half-pixel centers (output pixel i samples source
    coordinate (i + 0.5) * in/out - 0.5),
  * the bicubic kernel is cubic convolution with a = -0.5 (Catmull-Rom),
  * borders are handled by replication.
"""

import math

import numpy as np

from . import pgm
from .errors import RasterError


def as_image(arr) -> np.ndarray:
    """Coerce to a 2-D float64 image array, validating shape and finiteness."""
    img = np.asarray(arr, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise RasterError(f"expected a 2-D image, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise RasterError("image contains non-finite values")
    return img


def clamp01(img: np.ndarray) -> np.ndarray:
    return np.clip(img, 0.0, 1.0)


# ---------------------------------------------------------------------------
# separable resampling
# ---------------------------------------------------------------------------

def _cubic_kernel(t: np.ndarray) -> np.ndarray:
    """Keys cubic convolution weights with a = -0.5 at |distance| = t."""
    a = -0.5
    t = np.abs(t)
    w = np.where(
        t <= 1.0,
        (a + 2.0) * t**3 - (a + 3.0) * t**2 + 1.0,
        np.where(t < 2.0, a * (t**3 - 5.0 * t**2 + 8.0 * t - 4.0), 0.0),
    )
    return w


def _resample_axis(arr: np.ndarray, out_n: int, axis: int, kind: str) -> np.ndarray:
    """Resample one axis to out_n samples. kind is 'linear' or 'cubic'."""
    in_n = arr.shape[axis]
    if out_n == in_n:
        return arr
    # half-pixel center mapping
    x = (np.arange(out_n) + 0.5) * (in_n / out_n) - 0.5
    base = np.floor(x).astype(np.int64)
    frac = x - base
    if kind == "linear":
        offsets = np.array([0, 1])
        weights = np.stack([1.0 - frac, frac], axis=-1)
    else:
        offsets = np.array([-1, 0, 1, 2])
        dist = frac[:, None] - offsets[None, :]
        weights = _cubic_kernel(dist)
        weights /= weights.sum(axis=1, keepdims=True)
    idx = np.clip(base[:, None] + offsets[None, :], 0, in_n - 1)

    moved = np.moveaxis(arr, axis, 0)
    gathered = moved[idx]                     # (out_n, taps, ...)
    shaped = weights.reshape(weights.shape + (1,) * (moved.ndim - 1))
    out = (gathered * shaped).sum(axis=1)
    return np.moveaxis(out, 0, axis)


def _resize(img: np.ndarray, out_w: int, out_h: int, kind: str) -> np.ndarray:
    if out_w < 1 or out_h < 1:
        raise RasterError(f"target size {out_w}x{out_h} must be at least 1x1")
    if (out_w, out_h) == (img.shape[1], img.shape[0]):
        return img.copy()
    out = _resample_axis(img, out_h, 0, kind)
    out = _resample_axis(out, out_w, 1, kind)
    return out


def resize_bilinear(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resize. Output values are convex combinations of the input."""
    return _resize(as_image(img), out_w, out_h, "linear")


def resize_bicubic(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bicubic (Catmull-Rom) resize, clamped to [0, 1] against overshoot."""
    return clamp01(_resize(as_image(img), out_w, out_h, "cubic"))


def resize_bicubic_unclamped(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bicubic resize as a plain linear operator (no clamping).

    Needed where the resize acts on signed residuals rather than images.
    """
    return _resize(np.asarray(img, dtype=np.float64), out_w, out_h, "cubic")


# ---------------------------------------------------------------------------
# Gaussian blur
# ---------------------------------------------------------------------------

def gaussian_taps(sigma: float) -> np.ndarray:
    """1-D separable Gaussian taps, normalized to 1, over radius ceil(3*sigma);
    the radius is len(taps) // 2."""
    if sigma <= 0:
        raise RasterError(f"sigma must be positive, got {sigma}")
    radius = int(math.ceil(3.0 * sigma))
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(k**2) / (2.0 * sigma**2))
    taps /= taps.sum()
    return taps


def _correlate_rows(arr: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Correlate axis 0 with an odd symmetric kernel, borders replicated.

    Equal bit for bit to scipy.ndimage.correlate1d(axis=0, mode="nearest"):
    the centre tap first, then each symmetric pair summed before its weight,
    from the outermost pair inward, which is the order of ndimage's loop for
    a symmetric kernel.
    """
    r = len(taps) // 2
    n = arr.shape[0]
    padded = np.concatenate([arr[:1].repeat(r, axis=0), arr,
                             arr[-1:].repeat(r, axis=0)])
    out = padded[r:r + n] * taps[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(padded[r - j:r - j + n], padded[r + j:r + j + n], out=pair)
        pair *= taps[r - j]
        out += pair
    return out


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with replicated borders.

    Linear: works unchanged on signed residual planes, not just [0,1] images.
    The pass along axis 1 runs on the transpose, so both passes step through
    contiguous rows.
    """
    taps = gaussian_taps(sigma)
    out = _correlate_rows(np.asarray(img, dtype=np.float64), taps)
    return np.ascontiguousarray(_correlate_rows(out.T, taps).T)


# ---------------------------------------------------------------------------
# degradation-model operators
# ---------------------------------------------------------------------------

def antialias_sigma(in_w: int, in_h: int, out_w: int, out_h: int) -> float:
    """Default blur strength before downsampling: half the reduction factor."""
    return 0.5 * max(in_w / out_w, in_h / out_h)


def degrade(img: np.ndarray, out_w: int, out_h: int, sigma: float) -> np.ndarray:
    """Blur-then-downsample (the D*B product). sigma = 0 skips the blur."""
    img = as_image(img)
    h, w = img.shape
    if out_w > w or out_h > h:
        raise RasterError(f"degrade target {out_w}x{out_h} exceeds source {w}x{h}")
    blurred = gaussian_blur(img, sigma) if sigma > 0 else img
    return resize_bicubic(blurred, out_w, out_h)


def degrade_linear(img: np.ndarray, out_w: int, out_h: int, sigma: float) -> np.ndarray:
    """degrade() without the final clamp, for use inside linear recurrences."""
    arr = np.asarray(img, dtype=np.float64)
    blurred = gaussian_blur(arr, sigma) if sigma > 0 else arr
    return resize_bicubic_unclamped(blurred, out_w, out_h)


def upsample(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bicubic upscale (the U operator). Target must not shrink the image."""
    img = as_image(img)
    h, w = img.shape
    if out_w < w or out_h < h:
        raise RasterError(f"upsample target {out_w}x{out_h} smaller than source {w}x{h}")
    return resize_bicubic(img, out_w, out_h)


def upsample_linear(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """upsample() without the clamp, for signed residual planes."""
    return resize_bicubic_unclamped(img, out_w, out_h)


def axis_operator(in_n: int, out_n: int, sigma: float = 0.0) -> np.ndarray:
    """One axis of blur-then-bicubic-resample as an (out_n, in_n) matrix M.

    The blur is gaussian_blur's (sigma = 0 skips it), the resample is
    _resample_axis's, both pushed through the identity. Applying them along
    axis 0 of an image A gives M @ A, along axis 1 gives A @ M.T, so
    degrade_linear(A) == Mh @ A @ Mw.T with Mh = axis_operator(h, out_h, sigma).
    """
    m = np.eye(in_n)
    if sigma > 0:
        m = _correlate_rows(m, gaussian_taps(sigma))
    return _resample_axis(m, out_n, 0, "cubic")


# ---------------------------------------------------------------------------
# image I/O: PGM (P5) through `pgm`, PNG optional via Pillow
# ---------------------------------------------------------------------------

# ITU-R BT.601 luma weights for color conversion
_LUMA = (0.299, 0.587, 0.114)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5) into a [0,1] float image."""
    width, height, maxval, samples = pgm.read(path)
    dtype = ">u2" if maxval > 255 else np.uint8
    pixels = np.frombuffer(samples, dtype=dtype).reshape(height, width)
    return pixels.astype(np.float64) / float(maxval)


def write_pgm(path, img: np.ndarray) -> None:
    """Write a [0,1] image as 8-bit binary PGM (values mapped by round(v*255))."""
    img = as_image(img)
    quant = np.rint(clamp01(img) * 255.0).astype(np.uint8)
    h, w = quant.shape
    pgm.write(path, w, h, quant.tobytes())


def rgb_to_luma(rgb: np.ndarray) -> np.ndarray:
    """Convert an (h, w, 3) array in [0,1] to luma with BT.601 weights."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    return _LUMA[0] * r + _LUMA[1] * g + _LUMA[2] * b


def read_png(path) -> np.ndarray:
    try:
        from PIL import Image as PilImage
    except ImportError as exc:  # pragma: no cover
        raise RasterError("PNG support requires Pillow (pip install iris-sr[png])") from exc
    with PilImage.open(path) as im:
        if im.mode in ("L", "I;16", "I"):
            arr = np.asarray(im, dtype=np.float64)
            peak = 65535.0 if im.mode != "L" else 255.0
            return arr / peak
        rgb = np.asarray(im.convert("RGB"), dtype=np.float64) / 255.0
        return rgb_to_luma(rgb)


def write_png(path, img: np.ndarray) -> None:
    try:
        from PIL import Image as PilImage
    except ImportError as exc:  # pragma: no cover
        raise RasterError("PNG support requires Pillow (pip install iris-sr[png])") from exc
    quant = np.rint(clamp01(as_image(img)) * 255.0).astype(np.uint8)
    PilImage.fromarray(quant, mode="L").save(path)


def load_image(path) -> np.ndarray:
    p = str(path)
    if p.lower().endswith(".png"):
        return read_png(path)
    return read_pgm(path)
