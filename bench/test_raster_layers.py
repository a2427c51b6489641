"""Layer benchmarks of the numpy forms that replaced scipy calls: the
Gaussian blur and the blur axis operator, SIFT's 3x3x3 extrema on one DoG
octave, and the batched inverse FFT of phase congruency.

    PYTHONPATH=src python -m pytest bench/test_raster_layers.py --benchmark-enable --benchmark-only

The default test run collects it with `--benchmark-disable`: each
benchmarked call runs once, untimed. The FFT step is timed in three forms
side by side; `quality.phase_congruency` uses the two in-place 1-D passes.
"""

import numpy as np
import pytest

from irissr import dataset, quality, raster, siftmatch

EYE = dataset.synth_iris(0, 231)[0]


@pytest.mark.parametrize("sigma", [1.6, 8.0])
def test_gaussian_blur(benchmark, sigma):
    out = benchmark(raster.gaussian_blur, EYE, sigma)
    assert out.shape == EYE.shape


def test_axis_operator(benchmark):
    m = benchmark(raster.axis_operator, 231, 15, 8.0)
    assert m.shape == (15, 231)


def test_candidate_extrema(benchmark):
    dog = siftmatch._build_pyramid(EYE)[1][0]
    idx = benchmark(siftmatch._candidate_extrema, dog)
    assert len(idx) > 0


def _ifft2_scipy(eo):
    import scipy.fft

    return scipy.fft.ifft2(eo, overwrite_x=True)


def _ifft2_in_place(eo):
    np.fft.ifft(eo, axis=-1, out=eo)
    return np.fft.ifft(eo, axis=-2, out=eo)


FFT_FORMS = {"scipy.fft.ifft2": _ifft2_scipy, "np.fft.ifft2": np.fft.ifft2,
             "np.fft.ifft in place": _ifft2_in_place}


@pytest.mark.parametrize("form", sorted(FFT_FORMS))
def test_phase_congruency_fft(benchmark, form):
    # one orientation's batch: the spectrum times the bank's four scales
    bank = quality._filter_bank(231, 231)
    spectrum = np.fft.fft2(EYE)
    eo = np.empty((4, 231, 231), dtype=np.complex128)

    def step():
        np.multiply(spectrum, bank[0], out=eo)
        return FFT_FORMS[form](eo)

    out = benchmark(step)
    assert out.shape == (4, 231, 231)
