"""Layer benchmarks of one external-backend call: a whole
`python -m irissr.refbackend` process on a 120x120 input (what the last of
the four x2 passes of a 1/16 image sends), and `raster.read_pgm` and
`raster.write_pgm` on a 231x231 image, the size of every stage's images.

    PYTHONPATH=src python -m pytest bench/test_backend_layers.py --benchmark-enable --benchmark-only

The default test run collects it with `--benchmark-disable`: each
benchmarked call runs once, untimed. The backend process inherits
PYTHONPATH, so it runs the same source tree.
"""

import os
import subprocess
import sys

from irissr import dataset, raster

EYE = dataset.synth_iris(0, 231)[0]


def test_refbackend_call(benchmark, tmp_path):
    src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
    raster.write_pgm(src, raster.resize_bicubic(EYE, 120, 120))
    argv = [sys.executable, "-m", "irissr.refbackend", str(src), str(dst)]
    benchmark(subprocess.run, argv, check=True)
    assert raster.read_pgm(dst).shape == (240, 240)


def test_read_pgm(benchmark, tmp_path):
    path = tmp_path / "eye.pgm"
    raster.write_pgm(path, EYE)
    img = benchmark(raster.read_pgm, path)
    assert img.shape == (231, 231)


def test_write_pgm(benchmark, tmp_path):
    path = tmp_path / "eye.pgm"
    benchmark(raster.write_pgm, path, EYE)
    assert os.path.getsize(path) == len(b"P5\n231 231\n255\n") + 231 * 231
