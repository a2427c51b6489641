"""Full-reference image quality: PSNR, SSIM and FSIM, full-frame or iris region.

All metrics take [0,1] images (peak = 1). PSNR of identical images is the
math.inf sentinel; table writers cap it at 99.0 dB for printing.

SSIM (Wang et al. 2004) takes its five window means from a separable box
sum: a running 8-sample window sum down the rows, then along the columns, so
no per-window copy of the image is made.

FSIM (Zhang et al. 2011) needs phase congruency maps; those are computed with
a log-Gabor filter bank (4 scales x 4 orientations) following the standard
construction used by the index's reference implementation, with the gradient
step on a Scharr 3x3 operator and constants rescaled for unit peak. The
parameters are fixed as module constants: SSIM_* for SSIM, PC_* for the bank
and the noise model, FSIM_* for the pooling. The bank is cached read-only per
image shape as its two factors, 8 image planes of radial filters and angular
spreads; each filter is their product, formed in a reused plane. A phase
congruency call allocates its buffers once (the spectrum, the complex batch of
scales the inverse FFT runs on in place, the normalised sum, five real planes:
18 image planes at the peak, with the noise median's copy) and runs each later
step in them in place, equal bit for bit to the plain expressions.

The reference side of a report (`reference_maps`: phase congruency and
gradient of the reference, its unwrapped iris and that strip's maps) depends
on the reference image alone, so a caller that scores many test images
against one reference can compute it once and pass it to `region_report`.
The command line stores these maps, tagged with a digest of every module of
the package, so an edit to any of them rebuilds the maps.
"""

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InputError


PSNR_TABLE_CAP = 99.0

SSIM_WINDOW = 8
SSIM_K1 = 0.01
SSIM_K2 = 0.03

FSIM_T1 = 0.85
FSIM_T2 = 160.0 / 255.0**2  # reference value 160 rescaled from 8-bit to unit peak

PC_NSCALE = 4
PC_NORIENT = 4
PC_MIN_WAVELENGTH = 6.0
PC_MULT = 2.0
PC_SIGMA_ONF = 0.55
PC_DTHETA_ON_SIGMA = 1.2
PC_K_NOISE = 2.0
PC_CUTOFF = 0.5
PC_G = 10.0
PC_EPSILON = 1e-4

SCHARR_X = np.array([[3.0, 0.0, -3.0],
                     [10.0, 0.0, -10.0],
                     [3.0, 0.0, -3.0]]) / 16.0
SCHARR_Y = SCHARR_X.T


def _check_pair(ref, test):
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if ref.shape != test.shape:
        raise InputError(f"image dims differ: {ref.shape} vs {test.shape}")
    return ref, test


def psnr(ref: np.ndarray, test: np.ndarray) -> float:
    """10*log10(peak^2 / MSE) with peak = 1; inf when the images are identical."""
    ref, test = _check_pair(ref, test)
    mse = float(np.mean((ref - test) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def psnr_for_table(value: float) -> float:
    return min(value, PSNR_TABLE_CAP)


def _window_sums(img: np.ndarray, window: int) -> np.ndarray:
    """Sum over every dense window x window block: a running window sum down
    the rows, then along the columns (a separable box filter)."""
    rows = img.shape[0] - window + 1
    cols = img.shape[1] - window + 1
    down = sum(img[i:i + rows] for i in range(window))
    return sum(down[:, j:j + cols] for j in range(window))


def ssim(ref: np.ndarray, test: np.ndarray) -> float:
    """Mean SSIM over all dense uniform windows (population moments)."""
    ref, test = _check_pair(ref, test)
    h, w = ref.shape
    window = SSIM_WINDOW
    if h < window or w < window:
        raise InputError(f"image {w}x{h} smaller than SSIM window {window}")
    c1 = (SSIM_K1 * 1.0) ** 2
    c2 = (SSIM_K2 * 1.0) ** 2
    n = window * window
    mu1 = _window_sums(ref, window) / n
    mu2 = _window_sums(test, window) / n
    var1 = _window_sums(ref * ref, window) / n - mu1 * mu1
    var2 = _window_sums(test * test, window) / n - mu2 * mu2
    cov = _window_sums(ref * test, window) / n - mu1 * mu2
    num = (2.0 * mu1 * mu2 + c1) * (2.0 * cov + c2)
    den = (mu1**2 + mu2**2 + c1) * (var1 + var2 + c2)
    return float(np.mean(num / den))


# ---------------------------------------------------------------------------
# phase congruency (log-Gabor bank) and FSIM
# ---------------------------------------------------------------------------

# held while the bank of a shape is looked up, so that threads mapping one
# new shape build it once (an lru_cache lets each build its own copy)
_FILTER_BANK_LOCK = threading.Lock()


@functools.lru_cache(maxsize=4)
def _filter_bank(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only factors of the log-Gabor bank in FFT frequency layout: the
    (PC_NSCALE, rows, cols) radial filters and (PC_NORIENT, rows, cols)
    angular spreads, whose products radial[s] * spread[o] are its filters."""
    fx = np.fft.fftfreq(cols)
    fy = np.fft.fftfreq(rows)
    u, v = np.meshgrid(fx, fy)
    radius = np.hypot(u, v)
    radius[0, 0] = 1.0  # avoid log(0) at DC; the filters zero it anyway
    theta = np.arctan2(-v, u)
    sintheta = np.sin(theta)
    costheta = np.cos(theta)

    # sharp low-pass keeps the bank away from the FFT corners
    lowpass = 1.0 / (1.0 + (radius / 0.45) ** 30)

    theta_sigma = math.pi / PC_NORIENT / PC_DTHETA_ON_SIGMA
    radial = np.empty((PC_NSCALE, rows, cols))
    for s in range(PC_NSCALE):
        f0 = 1.0 / (PC_MIN_WAVELENGTH * PC_MULT**s)
        radial[s] = np.exp(-(np.log(radius / f0) ** 2) / (2.0 * math.log(PC_SIGMA_ONF) ** 2))
    radial *= lowpass
    radial[:, 0, 0] = 0.0
    spread = np.empty((PC_NORIENT, rows, cols))
    for o in range(PC_NORIENT):
        angl = o * math.pi / PC_NORIENT
        ds = sintheta * math.cos(angl) - costheta * math.sin(angl)
        dc = costheta * math.cos(angl) + sintheta * math.sin(angl)
        dtheta = np.abs(np.arctan2(ds, dc))
        spread[o] = np.exp(-(dtheta**2) / (2.0 * theta_sigma**2))
    radial.flags.writeable = spread.flags.writeable = False
    return radial, spread


def _median(values: np.ndarray) -> float:
    """np.median of a flat array by partial sort: the mean of the two middle
    values when the count is even."""
    k = values.size // 2
    if values.size % 2:
        return float(np.partition(values, k)[k])
    part = np.partition(values, (k - 1, k))
    return float((part[k - 1] + part[k]) / 2.0)


def phase_congruency(img: np.ndarray) -> np.ndarray:
    """Phase congruency map summed over orientations.

    Log-Gabor bank over PC_NSCALE scales and PC_NORIENT orientations with
    median-based noise compensation and a sigmoidal frequency-spread weight.
    """
    img = np.asarray(img, dtype=np.float64)
    rows, cols = img.shape
    with _FILTER_BANK_LOCK:
        radial, spread = _filter_bank(rows, cols)
    im_fft = np.fft.fft2(img)
    nscale, mult, epsilon = PC_NSCALE, PC_MULT, PC_EPSILON

    eo = np.empty((nscale, rows, cols), dtype=np.complex128)
    m = np.empty((rows, cols), dtype=np.complex128)
    plane, sum_an, max_an, energy = (np.empty((rows, cols)) for _ in range(4))
    pc_sum = np.zeros((rows, cols))
    for o in range(PC_NORIENT):
        for s in range(nscale):
            np.multiply(radial[s], spread[o], out=plane)
            np.multiply(im_fft, plane, out=eo[s])
        # the 2-D inverse FFT as two 1-D passes in place: np.fft.ifft2 would
        # allocate a new batch and take twice as long
        np.fft.ifft(eo, axis=-1, out=eo)
        np.fft.ifft(eo, axis=-2, out=eo)
        np.abs(eo[0], out=sum_an)
        max_an[...] = sum_an
        tau = _median(sum_an.ravel()) / math.sqrt(math.log(4.0))
        for s in range(1, nscale):
            np.abs(eo[s], out=plane)
            sum_an += plane
            np.maximum(max_an, plane, out=max_an)

        # energy along the mean phase direction m of the summed response: sum
        # over scales of Re(conj(eo) m) - |Im(conj(eo) m)|, |Im| in spent Re
        eo.sum(axis=0, out=m)
        m /= np.add(np.abs(m, out=plane), epsilon, out=plane)
        np.conjugate(eo, out=eo)
        eo *= m
        eo.real.sum(axis=0, out=energy)
        np.abs(eo.imag, out=eo.real)
        energy -= eo.real.sum(axis=0, out=plane)

        total_tau = tau * (1.0 - (1.0 / mult) ** nscale) / (1.0 - 1.0 / mult)
        noise_mean = total_tau * math.sqrt(math.pi / 2.0)
        noise_sigma = total_tau * math.sqrt((4.0 - math.pi) / 2.0)
        energy -= noise_mean + PC_K_NOISE * noise_sigma
        np.maximum(energy, 0.0, out=energy)

        # weight = 1 / (1 + exp(g (cutoff - width))), in max_an's plane
        width = np.divide(sum_an, np.add(max_an, epsilon, out=max_an), out=max_an)
        width -= 1.0
        width /= nscale - 1
        weight = np.subtract(PC_CUTOFF, width, out=width)
        weight *= PC_G
        np.exp(weight, out=weight)
        weight += 1.0
        energy *= np.divide(1.0, weight, out=weight)
        energy /= np.add(sum_an, epsilon, out=sum_an)
        pc_sum += energy

    return pc_sum


def _correlate3x3(padded: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """3x3 correlation of the image inside a 1-pixel edge pad: from 0, add
    each nonzero tap's shifted image in row-major order, the order in which
    scipy.ndimage.correlate sums them, so the result is equal bit for bit."""
    h, w = padded.shape[0] - 2, padded.shape[1] - 2
    out = np.zeros((h, w))
    for (di, dj), tap in np.ndenumerate(weights):
        if tap != 0.0:
            out += padded[di:di + h, dj:dj + w] * tap
    return out


def gradient_magnitude(img: np.ndarray) -> np.ndarray:
    """Scharr 3x3 gradient magnitude with replicated borders."""
    padded = np.pad(np.asarray(img, dtype=np.float64), 1, mode="edge")
    return np.hypot(_correlate3x3(padded, SCHARR_X), _correlate3x3(padded, SCHARR_Y))


def fsim(ref: np.ndarray, test: np.ndarray, ref_maps=None) -> float:
    """Feature similarity: phase-congruency/gradient similarity weighted by PC.

    `ref_maps` is the reference's (phase congruency, gradient magnitude)
    when the caller has them; otherwise they are computed here.
    """
    ref, test = _check_pair(ref, test)
    pc1, g1 = ref_maps if ref_maps is not None else (phase_congruency(ref),
                                                      gradient_magnitude(ref))
    pc2 = phase_congruency(test)
    pcm = np.maximum(pc1, pc2)
    total = float(pcm.sum())
    if total < 1e-12:
        # featureless pair (e.g. two constants): equal content counts as perfect
        return 1.0 if float(np.max(np.abs(ref - test))) <= 1e-9 else 0.0
    g2 = gradient_magnitude(test)
    t1, t2 = FSIM_T1, FSIM_T2
    s_pc = (2.0 * pc1 * pc2 + t1) / (pc1**2 + pc2**2 + t1)
    s_g = (2.0 * g1 * g2 + t2) / (g1**2 + g2**2 + t2)
    return float((s_pc * s_g * pcm).sum() / total)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QualityReport:
    psnr: float
    ssim: float
    fsim: float
    region: str  # 'full' or 'iris'


# the arrays `reference_maps` returns, by name
REFERENCE_MAPS = ("pc", "grad", "iris", "iris_pc", "iris_grad")


def reference_maps(ref: np.ndarray, ann) -> dict:
    """The reference side of `region_report`, which depends on the reference
    image alone: its phase congruency and gradient magnitude, its unwrapped
    iris and that strip's two maps."""
    from . import iriscode

    ref = np.asarray(ref, dtype=np.float64)
    iris = iriscode.unwrap(ref, ann).values
    return {"pc": phase_congruency(ref), "grad": gradient_magnitude(ref),
            "iris": iris, "iris_pc": phase_congruency(iris),
            "iris_grad": gradient_magnitude(iris)}


def region_report(ref: np.ndarray, test: np.ndarray, ann, maps=None):
    """Metrics on the raw pair plus on the rubber-sheet unwrapped iris region.
    `maps` is `reference_maps(ref, ann)`, computed here when not given."""
    from . import iriscode

    if maps is None:
        maps = reference_maps(ref, ann)
    full = QualityReport(psnr(ref, test), ssim(ref, test),
                         fsim(ref, test, (maps["pc"], maps["grad"])), "full")
    nref = maps["iris"]
    ntest = iriscode.unwrap(test, ann).values
    iris = QualityReport(psnr(nref, ntest), ssim(nref, ntest),
                         fsim(nref, ntest, (maps["iris_pc"], maps["iris_grad"])),
                         "iris")
    return full, iris
