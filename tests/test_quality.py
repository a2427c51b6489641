import concurrent.futures
import math
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import correlate

from irissr import dataset, iriscode, quality, raster
from irissr.errors import InputError


# --- brute-force scalar oracles ---------------------------------------------

def psnr_oracle(ref, test):
    total = math.fsum((float(r) - float(t)) ** 2
                      for r, t in zip(ref.ravel(), test.ravel()))
    mse = total / ref.size
    return math.inf if mse == 0 else 10.0 * math.log10(1.0 / mse)


def ssim_oracle(ref, test, window=8, k1=0.01, k2=0.03):
    """Naive double loop over windows and pixels, scalar arithmetic only."""
    h, w = ref.shape
    c1 = (k1 * 1.0) ** 2
    c2 = (k2 * 1.0) ** 2
    values = []
    n = window * window
    for y in range(h - window + 1):
        for x in range(w - window + 1):
            px1 = [float(ref[y + i, x + j]) for i in range(window) for j in range(window)]
            px2 = [float(test[y + i, x + j]) for i in range(window) for j in range(window)]
            mu1 = math.fsum(px1) / n
            mu2 = math.fsum(px2) / n
            var1 = math.fsum(v * v for v in px1) / n - mu1 * mu1
            var2 = math.fsum(v * v for v in px2) / n - mu2 * mu2
            cov = math.fsum(a * b for a, b in zip(px1, px2)) / n - mu1 * mu2
            num = (2 * mu1 * mu2 + c1) * (2 * cov + c2)
            den = (mu1 * mu1 + mu2 * mu2 + c1) * (var1 + var2 + c2)
            values.append(num / den)
    return math.fsum(values) / len(values)


def fsim_oracle(ref, test, t1=0.85, t2=160.0 / 255.0**2):
    """Per-pixel re-evaluation of the FSIM formula on precomputed PC and
    gradient maps (the maps themselves are shared with the implementation;
    the pooling arithmetic and the constants are independent)."""
    pc1 = quality.phase_congruency(ref)
    pc2 = quality.phase_congruency(test)
    g1 = quality.gradient_magnitude(ref)
    g2 = quality.gradient_magnitude(test)
    num_terms, den_terms = [], []
    h, w = ref.shape
    for y in range(h):
        for x in range(w):
            p1, p2 = float(pc1[y, x]), float(pc2[y, x])
            a1, a2 = float(g1[y, x]), float(g2[y, x])
            s_pc = (2 * p1 * p2 + t1) / (p1 * p1 + p2 * p2 + t1)
            s_g = (2 * a1 * a2 + t2) / (a1 * a1 + a2 * a2 + t2)
            pcm = max(p1, p2)
            num_terms.append(s_pc * s_g * pcm)
            den_terms.append(pcm)
    den = math.fsum(den_terms)
    if den < 1e-12:
        return 1.0 if np.max(np.abs(ref - test)) <= 1e-9 else 0.0
    return math.fsum(num_terms) / den


# --- whole-array references: the direct forms the fast code replaced ---------

def ssim_reference(ref, test, window=8, k1=0.01, k2=0.03):
    """Means over the 4-D view of every dense window."""
    c1 = (k1 * 1.0) ** 2
    c2 = (k2 * 1.0) ** 2
    w1 = sliding_window_view(ref, (window, window))
    w2 = sliding_window_view(test, (window, window))
    mu1 = w1.mean(axis=(-2, -1))
    mu2 = w2.mean(axis=(-2, -1))
    var1 = (w1 * w1).mean(axis=(-2, -1)) - mu1 * mu1
    var2 = (w2 * w2).mean(axis=(-2, -1)) - mu2 * mu2
    cov = (w1 * w2).mean(axis=(-2, -1)) - mu1 * mu2
    num = (2.0 * mu1 * mu2 + c1) * (2.0 * cov + c2)
    den = (mu1**2 + mu2**2 + c1) * (var1 + var2 + c2)
    return float(np.mean(num / den))


def phase_congruency_reference(img, nscale=4, norient=4, min_wavelength=6.0,
                               mult=2.0, sigma_onf=0.55, dtheta_on_sigma=1.2,
                               k_noise=2.0, cutoff=0.5, g=10.0, epsilon=1e-4):
    """The bank built on every call, one inverse FFT per filter, real-valued
    energy and np.median noise estimate."""
    img = np.asarray(img, dtype=np.float64)
    rows, cols = img.shape
    im_fft = np.fft.fft2(img)

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

    log_gabors = []
    for s in range(nscale):
        f0 = 1.0 / (min_wavelength * mult**s)
        lg = np.exp(-(np.log(radius / f0) ** 2) / (2.0 * math.log(sigma_onf) ** 2))
        lg *= lowpass
        lg[0, 0] = 0.0
        log_gabors.append(lg)

    theta_sigma = math.pi / norient / dtheta_on_sigma
    pc_sum = np.zeros((rows, cols))

    for o in range(norient):
        angl = o * math.pi / norient
        ds = sintheta * math.cos(angl) - costheta * math.sin(angl)
        dc = costheta * math.cos(angl) + sintheta * math.sin(angl)
        dtheta = np.abs(np.arctan2(ds, dc))
        spread = np.exp(-(dtheta**2) / (2.0 * theta_sigma**2))

        sum_e = np.zeros((rows, cols))
        sum_o = np.zeros((rows, cols))
        sum_an = np.zeros((rows, cols))
        max_an = np.zeros((rows, cols))
        eo_per_scale = []
        tau = 0.0
        for s in range(nscale):
            filt = log_gabors[s] * spread
            eo = np.fft.ifft2(im_fft * filt)
            an = np.abs(eo)
            eo_per_scale.append(eo)
            sum_an += an
            sum_e += eo.real
            sum_o += eo.imag
            if s == 0:
                tau = float(np.median(sum_an)) / math.sqrt(math.log(4.0))
                max_an = an.copy()
            else:
                max_an = np.maximum(max_an, an)

        x_energy = np.hypot(sum_e, sum_o) + epsilon
        mean_e = sum_e / x_energy
        mean_o = sum_o / x_energy
        energy = np.zeros((rows, cols))
        for eo in eo_per_scale:
            e, od = eo.real, eo.imag
            energy += e * mean_e + od * mean_o - np.abs(e * mean_o - od * mean_e)

        total_tau = tau * (1.0 - (1.0 / mult) ** nscale) / (1.0 - 1.0 / mult)
        noise_mean = total_tau * math.sqrt(math.pi / 2.0)
        noise_sigma = total_tau * math.sqrt((4.0 - math.pi) / 2.0)
        energy = np.maximum(energy - (noise_mean + k_noise * noise_sigma), 0.0)

        width = (sum_an / (max_an + epsilon) - 1.0) / (nscale - 1)
        weight = 1.0 / (1.0 + np.exp(g * (cutoff - width)))
        pc_sum += weight * energy / (sum_an + epsilon)

    return pc_sum


def fsim_reference(ref, test, t1=0.85, t2=160.0 / 255.0**2):
    """FSIM pooled from the reference phase-congruency maps."""
    pc1 = phase_congruency_reference(ref)
    pc2 = phase_congruency_reference(test)
    pcm = np.maximum(pc1, pc2)
    total = float(pcm.sum())
    if total < 1e-12:
        return 1.0 if float(np.max(np.abs(ref - test))) <= 1e-9 else 0.0
    g1 = quality.gradient_magnitude(ref)
    g2 = quality.gradient_magnitude(test)
    s_pc = (2.0 * pc1 * pc2 + t1) / (pc1**2 + pc2**2 + t1)
    s_g = (2.0 * g1 * g2 + t2) / (g1**2 + g2**2 + t2)
    return float((s_pc * s_g * pcm).sum() / total)


def reference_pairs():
    """231x231 eyes against their 1/4 bicubic baselines, the 20x240 unwrapped
    strips of the same pairs (an even pixel count: the noise median is the
    mean of two middle values), an odd-count non-square pair, a pair of exactly
    one SSIM window, and a constant pair."""
    pairs = []
    for seed in (0, 1):
        img, ann = dataset.synth_iris(seed, 231)
        base = raster.resize_bicubic(dataset.simulate_lr(img, 57, 57, 2.0), 231, 231)
        pairs.append((f"eye{seed}", img, base))
        pairs.append((f"strip{seed}", iriscode.unwrap(img, ann).values,
                      iriscode.unwrap(base, ann).values))
    rng = np.random.default_rng(11)
    for h, w in ((37, 53), (8, 8)):
        ref = rng.uniform(size=(h, w))
        pairs.append((f"{h}x{w}", ref, np.clip(ref + rng.normal(0, 0.1, (h, w)), 0, 1)))
    pairs.append(("constant", np.full((16, 16), 0.3), np.full((16, 16), 0.6)))
    return pairs


REFERENCE_PAIRS = reference_pairs()
REFERENCE_IDS = [name for name, _, _ in REFERENCE_PAIRS]


# --- PSNR --------------------------------------------------------------------

def test_psnr_identical_sentinel():
    img = np.random.default_rng(0).uniform(size=(8, 8))
    assert quality.psnr(img, img) == math.inf
    assert quality.psnr_for_table(math.inf) == 99.0


def test_psnr_closed_form_offset():
    ref = np.full((16, 16), 0.4)
    test = ref + 1.0 / 16
    assert quality.psnr(ref, test) == pytest.approx(10 * math.log10(256), abs=1e-12)
    assert quality.psnr(ref, test) == pytest.approx(24.0823996531, abs=1e-9)


def test_psnr_closed_form_checkerboard():
    cb = (np.indices((8, 8)).sum(axis=0) % 2).astype(float)
    mid = np.full((8, 8), 0.5)
    assert quality.psnr(cb, mid) == pytest.approx(6.0205999133, abs=1e-9)


def test_psnr_dims_mismatch():
    with pytest.raises(InputError, match="image dims differ"):
        quality.psnr(np.zeros((4, 4)), np.zeros((4, 5)))


def test_psnr_decreases_with_noise_amplitude():
    rng = np.random.default_rng(1)
    img = rng.uniform(0.3, 0.7, size=(32, 32))
    noise = rng.normal(size=(32, 32))
    noise -= noise.mean()
    values = [quality.psnr(img, np.clip(img + amp * noise, 0, 1))
              for amp in (0.01, 0.03, 0.09)]
    assert values[0] > values[1] > values[2]


# --- SSIM --------------------------------------------------------------------

def test_ssim_identical():
    img = np.random.default_rng(2).uniform(size=(12, 12))
    assert quality.ssim(img, img) == pytest.approx(1.0, abs=1e-12)


def test_ssim_constant_pair_closed_form():
    c, cp = 0.3, 0.6
    got = quality.ssim(np.full((9, 9), c), np.full((9, 9), cp))
    c1 = 0.01 ** 2
    assert got == pytest.approx((2 * c * cp + c1) / (c * c + cp * cp + c1), abs=1e-12)


def test_ssim_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    for _ in range(4):
        ref = rng.uniform(size=(16, 16))
        test = np.clip(ref + rng.normal(0, 0.1, size=(16, 16)), 0, 1)
        assert quality.ssim(ref, test) == pytest.approx(
            ssim_oracle(ref, test), abs=1e-9)


def test_ssim_symmetric():
    rng = np.random.default_rng(4)
    a = rng.uniform(size=(10, 10))
    b = rng.uniform(size=(10, 10))
    assert quality.ssim(a, b) == pytest.approx(quality.ssim(b, a), abs=1e-12)


def test_ssim_too_small_rejected():
    with pytest.raises(InputError, match="image 4x4 smaller than SSIM window"):
        quality.ssim(np.zeros((4, 4)), np.zeros((4, 4)))


# --- FSIM --------------------------------------------------------------------

def test_fsim_identical_is_one():
    img = np.random.default_rng(5).uniform(size=(24, 24))
    assert quality.fsim(img, img) == pytest.approx(1.0, abs=1e-12)


def test_fsim_constant_pair_guard():
    a = np.full((16, 16), 0.5)
    assert quality.fsim(a, a.copy()) == 1.0
    assert quality.fsim(a, np.full((16, 16), 0.7)) == 0.0


def test_fsim_matches_two_pass_oracle():
    rng = np.random.default_rng(6)
    for _ in range(3):
        ref = rng.uniform(size=(16, 16))
        test = np.clip(ref + rng.normal(0, 0.15, size=(16, 16)), 0, 1)
        assert quality.fsim(ref, test) == pytest.approx(
            fsim_oracle(ref, test), abs=1e-6)


def test_fsim_symmetric():
    rng = np.random.default_rng(7)
    a = rng.uniform(size=(20, 20))
    b = rng.uniform(size=(20, 20))
    assert quality.fsim(a, b) == pytest.approx(quality.fsim(b, a), abs=1e-12)


# --- fast forms against the references ----------------------------------------

@pytest.mark.parametrize("name,ref,test", REFERENCE_PAIRS, ids=REFERENCE_IDS)
def test_ssim_matches_reference(name, ref, test):
    assert abs(quality.ssim(ref, test) - ssim_reference(ref, test)) <= 1e-12


@pytest.mark.parametrize("name,ref,test", REFERENCE_PAIRS, ids=REFERENCE_IDS)
def test_phase_congruency_matches_reference(name, ref, test):
    for img in (ref, test):
        got = quality.phase_congruency(img)
        want = phase_congruency_reference(img)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("name,ref,test", REFERENCE_PAIRS, ids=REFERENCE_IDS)
def test_fsim_matches_reference(name, ref, test):
    assert abs(quality.fsim(ref, test) - fsim_reference(ref, test)) <= 1e-12


def test_gradient_magnitude_equals_scipy_correlate():
    # scipy is the reference the slice sums replaced: equal, not close
    images = [img for _, ref, test in REFERENCE_PAIRS for img in (ref, test)]
    images += [np.random.default_rng(14).uniform(size=shape)
               for shape in ((1, 5), (3, 3), (2, 7))]
    for img in images:
        gx = correlate(img, quality.SCHARR_X, mode="nearest")
        gy = correlate(img, quality.SCHARR_Y, mode="nearest")
        assert np.array_equal(quality.gradient_magnitude(img), np.hypot(gx, gy)), \
            img.shape


def test_noise_median_matches_numpy():
    rng = np.random.default_rng(12)
    for n in (4800, 4801, 1, 2):
        values = rng.uniform(size=n)
        assert quality._median(values) == float(np.median(values))


def test_filter_bank_cached_read_only():
    quality._filter_bank.cache_clear()
    img = dataset.synth_iris(2, 231)[0]
    strip = np.random.default_rng(13).uniform(size=(20, 240))
    first = quality.phase_congruency(img)
    bank = quality._filter_bank(231, 231)
    radial, spread = bank
    assert radial.shape == (quality.PC_NSCALE, 231, 231)
    assert spread.shape == (quality.PC_NORIENT, 231, 231)
    for factor in bank:
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0, 0, 1] = 0.0
    # a second shape gets its own bank and leaves the first one's results alone
    quality.phase_congruency(strip)
    assert quality._filter_bank.cache_info().currsize == 2
    assert np.array_equal(quality.phase_congruency(img), first)
    assert quality._filter_bank(231, 231) is bank


def test_filter_bank_built_once_across_threads():
    # two pool threads that meet a new shape at once share one bank build
    quality._filter_bank.cache_clear()
    images = [dataset.synth_iris(seed, 231)[0] for seed in range(2)]
    ready = threading.Barrier(2)

    def pc(img):
        ready.wait(timeout=30)
        return quality.phase_congruency(img)

    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        maps = list(pool.map(pc, images))
    assert quality._filter_bank.cache_info().misses == 1
    for img, got in zip(images, maps):
        assert np.array_equal(got, quality.phase_congruency(img))


def test_filter_bank_holds_eight_planes():
    # the scale and orientation factors, not their 16 products
    plane = 231 * 231 * 8
    assert sum(factor.nbytes for factor in quality._filter_bank(231, 231)) == 8 * plane


def test_phase_congruency_working_set():
    # one 231^2 call with its bank built allocates about 18 image planes: the
    # spectrum, the complex four-scale batch, the normalised sum, four real
    # planes, the map and the noise median's copy
    img = dataset.synth_iris(0, 231)[0]
    quality.phase_congruency(img)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        quality.phase_congruency(img)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 19.0 * img.nbytes


# --- region reports -----------------------------------------------------------

def test_region_report_identity(corpus20):
    img, ann = corpus20[0]
    full, iris = quality.region_report(img, img, ann)
    assert full.region == "full" and iris.region == "iris"
    assert full.psnr == math.inf and iris.psnr == math.inf
    assert full.ssim == pytest.approx(1.0, abs=1e-12)
    assert iris.fsim == pytest.approx(1.0, abs=1e-12)


def test_region_report_differs_between_regions(corpus20):
    img, ann = corpus20[1]
    base = raster.resize_bicubic(dataset.simulate_lr(img, 29, 29, 4.0), 231, 231)
    full, iris = quality.region_report(img, base, ann)
    assert full.psnr != pytest.approx(iris.psnr, abs=1e-6)
    assert 0 < full.ssim < 1 and 0 < iris.ssim < 1


def test_region_report_from_given_reference_maps(corpus20, tmp_path):
    # the maps a caller stored and read back give the same report, bit for bit
    img, ann = corpus20[2]
    base = raster.resize_bicubic(dataset.simulate_lr(img, 57, 57, 2.0), 231, 231)
    maps = quality.reference_maps(img, ann)
    assert sorted(maps) == sorted(quality.REFERENCE_MAPS)
    raster.save_npz(tmp_path / "maps.npz", "tag", **maps)
    stored = raster.load_npz(tmp_path / "maps.npz", "tag", quality.REFERENCE_MAPS)
    assert quality.region_report(img, base, ann, stored) == \
        quality.region_report(img, base, ann)
    assert quality.fsim(img, base, (maps["pc"], maps["grad"])) == \
        quality.fsim(img, base)

