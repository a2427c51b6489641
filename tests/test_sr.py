import os
import re
import sys

import numpy as np
import pytest

from irissr import dataset, eigenpatch, raster, sr
from irissr.errors import BackendError, InputError

NN2X = f"{sys.executable} -m irissr.refbackend {{in}} {{out}}"


def backend_entry(tmp_path, command=NN2X):
    return {"command": command, "exchange_dir": str(tmp_path / "exchange")}


def test_method_dispatch_errors():
    img = np.zeros((16, 16))
    with pytest.raises(InputError, match="unknown SR method 'wavelet'"):
        sr.super_resolve(img, 32, 32, "wavelet")
    with pytest.raises(InputError, match="'backend:x' requires its backend entry"):
        sr.super_resolve(img, 32, 32, "backend:x")  # no backend entry


def test_direct_methods_single_pass():
    img = np.random.default_rng(0).uniform(size=(16, 16))
    out, passes = sr.super_resolve(img, 64, 64, "bilinear")
    assert passes == 1 and out.shape == (64, 64)
    out, passes = sr.super_resolve(img, 64, 64, "bicubic")
    assert passes == 1
    # the driver adds nothing over the raw resampler
    assert np.array_equal(out, raster.resize_bicubic(img, 64, 64))


def test_target_smaller_rejected():
    img = np.zeros((16, 16))
    with pytest.raises(InputError, match="target 8x16 smaller than input 16x16"):
        sr.super_resolve(img, 8, 16, "bicubic")


def test_planned_passes_formula():
    assert sr.planned_passes(16, 32) == 1      # n = 2
    assert sr.planned_passes(16, 256) == 4     # n = 16
    assert sr.planned_passes(13, 319) == 5     # n ~ 24.5
    assert sr.planned_passes(16, 16) == 0      # n = 1
    assert sr.planned_passes(115, 231) == 2    # n = 2.0087: the formula is literal


def test_backend_chain_passes_and_exact_size(tmp_path):
    img, _ = dataset.synth_iris(0, 64)
    lr = raster.degrade(img, 13, 13, 2.0)
    backend = backend_entry(tmp_path)
    out, passes = sr.super_resolve(lr, 319, 319, "backend:test", backend=backend)
    assert passes == 5
    assert out.shape == (319, 319)
    # exchange protocol: one unique subdirectory per invocation
    exchange = backend["exchange_dir"]
    subdirs = [d for d in os.listdir(exchange)
               if os.path.isdir(os.path.join(exchange, d))]
    assert len(subdirs) == 5


def test_backend_passes_counted_per_axis(tmp_path):
    # the height factor 231 / 15 decides: 4 passes reach 912x240 and the
    # bicubic correction only shrinks
    lr = np.random.default_rng(3).uniform(size=(15, 57))
    backend = backend_entry(tmp_path)
    out, passes = sr.super_resolve(lr, 231, 231, "backend:test", backend=backend)
    assert passes == 4 and out.shape == (231, 231)
    exchange = backend["exchange_dir"]
    sizes = sorted(raster.read_pgm(os.path.join(exchange, d, "out.pgm")).shape
                   for d in os.listdir(exchange))
    assert sizes == [(30, 114), (60, 228), (120, 456), (240, 912)]


def test_backend_single_pass_factor2(tmp_path):
    img = np.random.default_rng(1).uniform(size=(16, 16))
    out, passes = sr.super_resolve(img, 32, 32, "backend:test",
                                   backend=backend_entry(tmp_path))
    assert passes == 1
    assert out.shape == (32, 32)
    # nearest-neighbor backend: values preserved blockwise (modulo 8-bit I/O)
    quant = np.rint(img * 255) / 255.0
    assert np.abs(out[::2, ::2] - quant).max() < 1e-12
    assert np.abs(out[1::2, 1::2] - quant).max() < 1e-12


def test_apply_backend_dimension_mismatch(tmp_path):
    bad = (f"{sys.executable} -c \"import sys; from irissr import raster; "
           "img = raster.read_pgm(sys.argv[1]); raster.write_pgm(sys.argv[2], img)\" "
           "{in} {out}")
    with pytest.raises(BackendError, match="do not match the required x2 dims"):
        sr.apply_backend(np.zeros((8, 8)), backend_entry(tmp_path, bad))


def test_apply_backend_nonzero_exit(tmp_path):
    bad = f"{sys.executable} -c \"import sys; sys.exit(3)\" {{in}} {{out}}"
    with pytest.raises(BackendError, match="backend exited with status 3: "):
        sr.apply_backend(np.zeros((8, 8)), backend_entry(tmp_path, bad))


def test_apply_backend_missing_output(tmp_path):
    bad = f"{sys.executable} -c \"pass\" {{in}} {{out}}"
    with pytest.raises(BackendError, match="backend produced no output file"):
        sr.apply_backend(np.zeros((8, 8)), backend_entry(tmp_path, bad))


def test_eigenpatch_method_single_pass():
    imgs = [dataset.synth_iris(seed, 64)[0] for seed in range(4)]
    model = eigenpatch.train(imgs, 16, 16, 1.0)
    lr = raster.degrade(imgs[0], 16, 16, 1.0)
    out, passes = sr.super_resolve(lr, 64, 64, "eigenpatch", model=model)
    assert passes == 1
    assert out.shape == (64, 64)
    with pytest.raises(InputError, match="eigenpatch upscaler requires a model"):
        sr.super_resolve(lr, 64, 64, "eigenpatch")  # no model
    # the model reconstructs its own HR plane, never another size
    with pytest.raises(InputError, match=re.escape(
            "target dims (96, 96) do not match model HR plane (64, 64)")):
        sr.super_resolve(lr, 96, 96, "eigenpatch", model=model)
