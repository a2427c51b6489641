"""Layer benchmark of one whole re-projected image: an 8-bit LR observation
of a 231x231 synthetic eye, its bicubic upscale as the start, and
`reproject.reproject` with the default `tau` and `tol`, at each paper factor
(1/16, 1/8, 1/4, 1/2) and at the non-square [57, 15]. At 1/16 the
iterations are capped at 300, as in perfbench's `reproject16` workload;
elsewhere the default cap applies.

    PYTHONPATH=src python -m pytest bench/test_reproject_layers.py --benchmark-enable --benchmark-only

The default test run collects it with `--benchmark-disable`: each
benchmarked call runs once, untimed.
"""

import numpy as np
import pytest

from irissr import dataset, raster, reproject

EYE = dataset.synth_iris(0, 231)[0]


@pytest.mark.parametrize("lr_w,lr_h,max_iter", [
    (15, 15, 300),
    (29, 29, reproject.DEFAULT_MAX_ITER),
    (57, 57, reproject.DEFAULT_MAX_ITER),
    (115, 115, reproject.DEFAULT_MAX_ITER),
    (57, 15, reproject.DEFAULT_MAX_ITER),
], ids=["1_16", "1_8", "1_4", "1_2", "57x15"])
def test_reproject_image(benchmark, lr_w, lr_h, max_iter):
    sigma = raster.antialias_sigma(231, 231, lr_w, lr_h)
    # the LR image as `sr` reads it back from its PGM
    lr = np.rint(raster.degrade(EYE, lr_w, lr_h, sigma) * 255) / 255
    start = raster.resize_bicubic(lr, 231, 231)
    y, iterations, _ = benchmark(reproject.reproject, start, lr, sigma,
                                 max_iter=max_iter)
    assert y.shape == (231, 231) and 1 <= iterations <= max_iter
