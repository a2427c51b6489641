"""Layer benchmarks of the quality metrics: SSIM, phase congruency and FSIM on
a full 231x231 eye and on its 20x240 unwrapped iris strip, and the two paths
of one 231x231 region report: building the reference maps (the first
`quality` command over a prep stage) and the report given them (every later
one).

    PYTHONPATH=src python -m pytest bench/test_quality_layers.py --benchmark-enable --benchmark-only

The default test run collects it with `--benchmark-disable`: each
benchmarked call runs once, untimed. The phase congruency and given-maps
report benchmarks also record one call's traced peak allocation, in MiB, as
`traced_peak_mib` in their `extra_info`.
"""

import tracemalloc

import numpy as np
import pytest

from irissr import dataset, iriscode, quality, raster


EYE, ANN = dataset.synth_iris(0, 231)
BASE = raster.resize_bicubic(dataset.simulate_lr(EYE, 57, 57, 2.0), 231, 231)
PAIRS = {"231x231": (EYE, BASE),
         "20x240": (iriscode.unwrap(EYE, ANN).values,
                    iriscode.unwrap(BASE, ANN).values)}


@pytest.fixture(params=sorted(PAIRS))
def pair(request):
    ref, test = PAIRS[request.param]
    # build the cached filter bank outside the timed rounds
    quality.phase_congruency(ref)
    return ref, test


def test_ssim(benchmark, pair):
    value = benchmark(quality.ssim, *pair)
    assert 0.0 < value < 1.0


def traced_peak_mib(fn, *args):
    """The peak allocation of one call, traced outside the timed rounds."""
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(peak / 2**20, 3)


def test_phase_congruency(benchmark, pair):
    benchmark.extra_info["traced_peak_mib"] = traced_peak_mib(
        quality.phase_congruency, pair[0])
    pc = benchmark(quality.phase_congruency, pair[0])
    assert pc.shape == pair[0].shape and np.isfinite(pc).all()


def test_fsim(benchmark, pair):
    value = benchmark(quality.fsim, *pair)
    assert 0.0 < value < 1.0


def test_reference_maps(benchmark):
    quality.reference_maps(EYE, ANN)  # the filter banks, outside the timed rounds
    maps = benchmark(quality.reference_maps, EYE, ANN)
    assert sorted(maps) == sorted(quality.REFERENCE_MAPS)


def test_region_report_given_maps(benchmark):
    maps = quality.reference_maps(EYE, ANN)
    benchmark.extra_info["traced_peak_mib"] = traced_peak_mib(
        quality.region_report, EYE, BASE, ANN, maps)
    full, iris = benchmark(quality.region_report, EYE, BASE, ANN, maps)
    assert 0.0 < full.fsim < 1.0 and 0.0 < iris.fsim < 1.0
