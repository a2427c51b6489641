"""Log-Gabor iris comparator: rubber-sheet unwrap, phase coding, Hamming matching.

The iris annulus is mapped to a fixed polar rectangle (radial x angular
samples, concentric circles about the pupil center), each row is filtered by a
1-D log-Gabor wavelet, and the response phase is quantized to four levels (two
bits per sample). Matching is the normalized Hamming distance over jointly
valid bits, minimized over a small range of angular shifts to absorb head
tilt. Lower score = more similar (distance polarity).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


# published defaults of the comparator this module follows
RADIAL_RES = 20
ANGULAR_RES = 240
WAVELENGTH = 18.0
SIGMA_RATIO = 0.5
MAX_SHIFT = 8
AMPLITUDE_THRESHOLD = 1e-4

SCORE_POLARITY = "genuine_low"


@dataclass(frozen=True)
class NormalizedIris:
    values: np.ndarray  # (R, A) float in [0,1]
    mask: np.ndarray    # (R, A) bool, False where sampling left the image


@dataclass(frozen=True)
class IrisTemplate:
    code: np.ndarray  # (R, 2A) bool, (real>=0, imag>=0) interleaved per sample
    mask: np.ndarray  # (R, 2A) bool


def unwrap(img: np.ndarray, ann) -> NormalizedIris:
    """Daugman rubber-sheet normalization with bilinear pixel sampling."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    if ann.pupil_radius >= ann.iris_radius:
        raise InputError(
            f"degenerate annotation: pupil radius {ann.pupil_radius} >= "
            f"iris radius {ann.iris_radius}")
    if ann.pupil_radius <= 0:
        raise InputError("pupil radius must be positive")

    theta = 2.0 * np.pi * np.arange(ANGULAR_RES) / ANGULAR_RES
    t = (np.arange(RADIAL_RES) + 0.5) / RADIAL_RES
    radii = ann.pupil_radius + t * (ann.iris_radius - ann.pupil_radius)

    sx = ann.px + radii[:, None] * np.cos(theta)[None, :]
    sy = ann.py + radii[:, None] * np.sin(theta)[None, :]

    mask = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
    x0 = np.clip(np.floor(sx).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(sy).astype(np.int64), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = np.clip(sx - x0, 0.0, 1.0)
    fy = np.clip(sy - y0, 0.0, 1.0)

    values = (
        img[y0, x0] * (1 - fy) * (1 - fx)
        + img[y0, x1] * (1 - fy) * fx
        + img[y1, x0] * fy * (1 - fx)
        + img[y1, x1] * fy * fx
    )
    values = np.where(mask, values, 0.0)
    return NormalizedIris(values=values, mask=mask)


def encode(norm: NormalizedIris) -> IrisTemplate:
    """1-D log-Gabor phase quantization, two bits per angular sample.

    Each row is filtered in the frequency domain by
    G(f) = exp(-(ln(f/f0))^2 / (2 ln(SIGMA_RATIO)^2)), f0 = 1/WAVELENGTH,
    applied one-sided (negative frequencies zeroed) so the response is the
    filtered analytic signal. DC gain is zero, so constant rows encode to
    fully masked bits.
    """
    values = norm.values
    r_res, a_res = values.shape
    if a_res < 8:
        raise InputError(f"angular resolution {a_res} too small to filter")

    freqs = np.fft.fftfreq(a_res)  # cycles per sample
    f0 = 1.0 / WAVELENGTH
    gain = np.zeros(a_res)
    pos = freqs > 0
    gain[pos] = np.exp(-(np.log(freqs[pos] / f0) ** 2)
                       / (2.0 * np.log(SIGMA_RATIO) ** 2))

    spectrum = np.fft.fft(values, axis=1)
    response = np.fft.ifft(spectrum * gain[None, :], axis=1)

    re_bit = response.real >= 0.0
    im_bit = response.imag >= 0.0
    valid = norm.mask & (np.abs(response) >= AMPLITUDE_THRESHOLD)

    code = np.empty((r_res, 2 * a_res), dtype=bool)
    mask = np.empty((r_res, 2 * a_res), dtype=bool)
    code[:, 0::2] = re_bit
    code[:, 1::2] = im_bit
    mask[:, 0::2] = valid
    mask[:, 1::2] = valid
    return IrisTemplate(code=code, mask=mask)


def hamming(t1: IrisTemplate, t2: IrisTemplate, max_shift: int = MAX_SHIFT) -> float:
    """Normalized Hamming distance minimized over +-max_shift angular samples.

    A shift moves both bits of an angular sample together (roll by two code
    columns); shifts whose joint mask is empty are skipped.
    """
    if t1.code.shape != t2.code.shape:
        raise InputError(
            f"template dims differ: {t1.code.shape} vs {t2.code.shape}")
    best = None
    for s in range(-max_shift, max_shift + 1):
        code2 = np.roll(t2.code, 2 * s, axis=1)
        mask2 = np.roll(t2.mask, 2 * s, axis=1)
        joint = t1.mask & mask2
        n = int(joint.sum())
        if n == 0:
            continue
        hd = int(((t1.code ^ code2) & joint).sum()) / n
        if best is None or hd < best:
            best = hd
    if best is None:
        raise InputError("no jointly valid bits at any shift")
    return best
