"""Layer benchmarks of the eigen-patch method at the geometry of perfbench's
`exchange` workload: `eigenpatch.train` on four 231x231 synthetic eyes at
1/4 (57x57 LR, 784 patch positions), `eigenpatch.reconstruct` of one 57x57
image with that model, and `eigenpatch.save_model` followed by
`eigenpatch.load_model` of it under one tag: the library's way to persist a
model, as the command line trains one in memory and stores none. The
save-and-load bench records the model file's size in bytes as `model_bytes`
in its `extra_info`. The `_1_2` cases train on eighteen eyes at 1/2
(115x115 LR, 3249 patch positions), the factor with the most positions per
image, and reconstruct one 115x115 image with that model.

    PYTHONPATH=src python -m pytest bench/test_eigenpatch_layers.py --benchmark-enable --benchmark-only

The default test run collects it with `--benchmark-disable`: each
benchmarked call runs once, untimed.
"""

import numpy as np

from irissr import dataset, eigenpatch, raster


def _lr_eye(seed, side, sigma):
    """An eye outside the training set, as `sr` reads it back from its PGM."""
    return np.rint(raster.degrade(dataset.synth_iris(seed, 231)[0], side, side,
                                  sigma) * 255) / 255


EYES = [dataset.synth_iris(seed, 231)[0] for seed in range(18)]
SIGMA = raster.antialias_sigma(231, 231, 57, 57)
MODEL = eigenpatch.train(EYES[:4], 57, 57, SIGMA)
TAG = "bench"
LR = _lr_eye(4, 57, SIGMA)
SIGMA_1_2 = raster.antialias_sigma(231, 231, 115, 115)
MODEL_1_2 = eigenpatch.train(EYES, 115, 115, SIGMA_1_2)
LR_1_2 = _lr_eye(18, 115, SIGMA_1_2)


def test_train(benchmark):
    model = benchmark(eigenpatch.train, EYES[:4], 57, 57, SIGMA)
    assert model.n_positions == 28 * 28


def test_reconstruct(benchmark):
    img = benchmark(eigenpatch.reconstruct, LR, MODEL)
    assert img.shape == (231, 231)


def test_train_1_2(benchmark):
    model = benchmark(eigenpatch.train, EYES, 115, 115, SIGMA_1_2)
    assert model.n_positions == 57 * 57


def test_reconstruct_1_2(benchmark):
    img = benchmark(eigenpatch.reconstruct, LR_1_2, MODEL_1_2)
    assert img.shape == (231, 231)


def test_save_and_load_model(benchmark, tmp_path):
    path = tmp_path / "eigenpatch_1_4.npz"

    def round_trip():
        eigenpatch.save_model(path, MODEL, TAG)
        return eigenpatch.load_model(path, TAG)

    model = benchmark(round_trip)
    benchmark.extra_info["model_bytes"] = path.stat().st_size
    assert np.array_equal(eigenpatch.reconstruct(LR, model),
                          eigenpatch.reconstruct(LR, MODEL))
