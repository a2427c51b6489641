"""Layer benchmarks of the quality metrics: SSIM, phase congruency and FSIM on
a full 231x231 eye and on its 20x240 unwrapped iris strip.

    PYTHONPATH=src python -m pytest bench/test_quality_layers.py --benchmark-enable --benchmark-only

The default test run collects it with `--benchmark-disable`: each
benchmarked call runs once, untimed.
"""

import numpy as np
import pytest

from irissr import dataset, iriscode, quality, raster


def _pairs():
    img, ann = dataset.synth_iris(0, 231)
    base = raster.resize_bicubic(dataset.simulate_lr(img, 57, 57, 2.0), 231, 231)
    return {"231x231": (img, base),
            "20x240": (iriscode.unwrap(img, ann).values,
                       iriscode.unwrap(base, ann).values)}


PAIRS = _pairs()


@pytest.fixture(params=sorted(PAIRS))
def pair(request):
    ref, test = PAIRS[request.param]
    # build the cached filter bank outside the timed rounds
    quality.phase_congruency(ref)
    return ref, test


def test_ssim(benchmark, pair):
    value = benchmark(quality.ssim, *pair)
    assert 0.0 < value < 1.0


def test_phase_congruency(benchmark, pair):
    pc = benchmark(quality.phase_congruency, pair[0])
    assert pc.shape == pair[0].shape and np.isfinite(pc).all()


def test_fsim(benchmark, pair):
    value = benchmark(quality.fsim, *pair)
    assert 0.0 < value < 1.0
