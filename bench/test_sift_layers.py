"""Layer benchmarks of SIFT: `detect_describe` on a synthetic eye upscaled
bicubically from 1/4 and from 1/16 (the two SR factors the perfbench
workloads match at), and the batched Newton refinement of one octave's
candidates.

    PYTHONPATH=src python -m pytest bench/test_sift_layers.py --benchmark-enable --benchmark-only

The default test run collects it with `--benchmark-disable`: each
benchmarked call runs once, untimed. The eyes are quantised to 8 bits, as
the pipeline's PGM files are. `detect_describe` also records one call's
traced peak allocation, in MiB, as `traced_peak_mib` in its `extra_info`.
"""

import tracemalloc

import numpy as np
import pytest

from irissr import dataset, raster, siftmatch

EYE = dataset.synth_iris(0, 231)[0]


def upscaled_eye(lr):
    sigma = raster.antialias_sigma(231, 231, lr, lr)
    baseline = raster.resize_bicubic(dataset.simulate_lr(EYE, lr, lr, sigma), 231, 231)
    return np.round(baseline * 255) / 255


@pytest.mark.parametrize("lr", [57, 15], ids=["1/4", "1/16"])
def test_detect_describe(benchmark, lr):
    img = upscaled_eye(lr)
    # the working set of one call, traced outside the timed rounds
    tracemalloc.start()
    try:
        siftmatch.detect_describe(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["traced_peak_mib"] = round(peak / 2**20, 3)
    kps, desc = benchmark(siftmatch.detect_describe, img)
    assert len(kps) == len(desc) > 0


def test_refine_octave(benchmark):
    dog = next(siftmatch._build_pyramid(upscaled_eye(57)))[1]
    cands = siftmatch._candidate_extrema(dog)
    refined = benchmark(siftmatch._refine_octave, dog, cands)
    assert 0 < len(refined) <= len(cands)
