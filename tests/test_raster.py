import math
import re

import numpy as np
import pytest
from scipy.ndimage import correlate1d

from irissr import pgm, raster


# --- independent scalar oracles -------------------------------------------

def bilinear_oracle(img, out_w, out_h):
    """Direct evaluation of the bilinear weight formula at each output pixel."""
    in_h, in_w = img.shape
    out = np.empty((out_h, out_w))
    for oy in range(out_h):
        sy = (oy + 0.5) * in_h / out_h - 0.5
        y0 = math.floor(sy)
        fy = sy - y0
        for ox in range(out_w):
            sx = (ox + 0.5) * in_w / out_w - 0.5
            x0 = math.floor(sx)
            fx = sx - x0

            def px(y, x):
                return img[min(max(y, 0), in_h - 1), min(max(x, 0), in_w - 1)]

            out[oy, ox] = ((1 - fy) * ((1 - fx) * px(y0, x0) + fx * px(y0, x0 + 1))
                           + fy * ((1 - fx) * px(y0 + 1, x0) + fx * px(y0 + 1, x0 + 1)))
    return out


def test_bilinear_constant():
    img = np.full((5, 7), 0.42)
    out = raster.resize_bilinear(img, 13, 3)
    assert out.shape == (3, 13)
    assert np.allclose(out, 0.42, atol=1e-12)


def test_bilinear_identity_resize():
    img = np.random.default_rng(0).uniform(size=(9, 11))
    out = raster.resize_bilinear(img, 11, 9)
    assert np.array_equal(out, img)


def test_bilinear_checker_2x2_to_4x4_matches_hand_values():
    img = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = raster.resize_bilinear(img, 4, 4)
    # hand evaluation of the half-pixel-center formula at the 2x2 center block
    assert np.allclose(out[1:3, 1:3], [[0.375, 0.625], [0.625, 0.375]], atol=1e-15)
    assert np.allclose(out, bilinear_oracle(img, 4, 4), atol=1e-12)


def test_bilinear_matches_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(5):
        img = rng.uniform(size=(6, 9))
        out_w, out_h = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        got = raster.resize_bilinear(img, out_w, out_h)
        assert np.allclose(got, bilinear_oracle(img, out_w, out_h), atol=1e-12)


def test_bilinear_zero_target_rejected():
    img = np.zeros((4, 4))
    with pytest.raises(raster.RasterError):
        raster.resize_bilinear(img, 0, 4)
    with pytest.raises(raster.RasterError):
        raster.resize_bilinear(img, 4, 0)


def test_bicubic_constant_and_identity():
    img = np.full((6, 6), 0.3)
    assert np.allclose(raster.resize_bicubic(img, 17, 5), 0.3, atol=1e-12)
    img = np.random.default_rng(1).uniform(size=(8, 8))
    assert np.array_equal(raster.resize_bicubic(img, 8, 8), img)


def test_bicubic_reproduces_linear_ramp():
    # cubic convolution reproduces linear functions away from the borders
    ramp = np.tile(np.linspace(0.1, 0.9, 16), (16, 1))
    up = raster.resize_bicubic(ramp, 32, 32)
    xs = (np.arange(32) + 0.5) * 0.5 - 0.5
    expected = 0.1 + (0.9 - 0.1) * xs / 15.0
    assert np.abs(up[10, 4:28] - expected[4:28]).max() < 1e-6


def test_bicubic_clamps_overshoot():
    img = np.zeros((8, 8))
    img[:, 4:] = 1.0  # step edge: unclamped cubic overshoots
    up = raster.resize_bicubic(img, 32, 32)
    assert up.min() >= 0.0 and up.max() <= 1.0
    over = raster.resize_bicubic_unclamped(img, 32, 32)
    assert over.min() < 0.0 and over.max() > 1.0


def test_gaussian_blur_constant():
    img = np.full((16, 16), 0.77)
    assert np.allclose(raster.gaussian_blur(img, 2.0), 0.77, atol=1e-12)


def test_gaussian_blur_impulse_is_tap_product():
    sigma = 1.2
    taps = raster.gaussian_taps(sigma)
    r = len(taps) // 2
    assert len(taps) % 2 == 1 and r == math.ceil(3 * sigma)
    assert abs(taps.sum() - 1.0) < 1e-9
    assert np.allclose(taps, taps[::-1])
    img = np.zeros((21, 21))
    img[10, 10] = 1.0
    out = raster.gaussian_blur(img, sigma)
    # independent evaluation of the separable kernel product
    expected = np.empty((2 * r + 1, 2 * r + 1))
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            expected[dy + r, dx + r] = taps[dy + r] * taps[dx + r]
    assert np.allclose(out[10 - r:10 + r + 1, 10 - r:10 + r + 1], expected,
                       atol=1e-12)


def test_gaussian_blur_subtap_sigma_near_identity():
    # sigma 0.3: single-tap kernel mass concentrates at the center; on a smooth
    # image the blur is within 1e-3 of the identity
    ys, xs = np.mgrid[0:32, 0:32] / 31.0
    img = 0.2 + 0.3 * xs + 0.3 * ys
    out = raster.gaussian_blur(img, 0.3)
    assert np.abs(out - img).max() < 1e-3


def test_gaussian_blur_rejects_nonpositive_sigma():
    with pytest.raises(raster.RasterError):
        raster.gaussian_blur(np.zeros((4, 4)), 0.0)
    with pytest.raises(raster.RasterError):
        raster.gaussian_taps(-1.0)


def test_blur_linearity():
    rng = np.random.default_rng(3)
    i1 = rng.uniform(size=(12, 12))
    i2 = rng.uniform(size=(12, 12))
    a, b = 0.6, 0.3
    lhs = raster.gaussian_blur(a * i1 + b * i2, 1.5)
    rhs = a * raster.gaussian_blur(i1, 1.5) + b * raster.gaussian_blur(i2, 1.5)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_degrade_constant_any_size_and_sigma():
    img = np.full((31, 31), 0.5)
    for size, sigma in [(15, 1.0), (7, 3.3), (31, 0.4), (2, 7.7)]:
        out = raster.degrade(img, size, size, sigma)
        assert out.shape == (size, size)
        assert np.allclose(out, 0.5, atol=1e-12)


def test_degrade_sizes_match_configuration():
    img = np.zeros((231, 231))
    out = raster.degrade(img, 115, 115, 1.0)
    assert out.shape == (115, 115)
    with pytest.raises(raster.RasterError):
        raster.degrade(img, 232, 231, 1.0)


def test_degrade_roundtrip_close_with_zero_sigma():
    from irissr import dataset
    diffs = []
    for seed in range(5):
        big, _ = dataset.synth_iris(seed, 128)
        x = raster.degrade(big, 32, 32, 0.0)
        y_star = raster.resize_bicubic(x, 128, 128)
        back = raster.degrade(y_star, 32, 32, 0.0)
        diffs.append(np.abs(back - x).mean())
    assert max(diffs) < 0.02


def test_upsample_contracts():
    img = np.random.default_rng(2).uniform(size=(13, 13))
    out = raster.upsample(img, 319, 319)
    assert out.shape == (319, 319)
    same = raster.upsample(img, 13, 13)
    assert np.array_equal(same, img)
    assert np.allclose(raster.upsample(np.full((4, 4), 0.9), 9, 9), 0.9, atol=1e-12)
    with pytest.raises(raster.RasterError):
        raster.upsample(img, 12, 13)


def test_axis_operator_matches_per_axis_code():
    rng = np.random.default_rng(5)
    img = rng.normal(size=(37, 29))
    for out_h, out_w in [(9, 7), (37, 29), (80, 61), (37, 12)]:
        mh = raster.axis_operator(37, out_h)
        mw = raster.axis_operator(29, out_w)
        assert mh.shape == (out_h, 37) and mw.shape == (out_w, 29)
        direct = raster._resample_axis(
            raster._resample_axis(img, out_h, 0, "cubic"), out_w, 1, "cubic")
        assert np.abs(mh @ img @ mw.T - direct).max() < 1e-12
    for sigma in (0.4, 1.5, 7.7):
        gh = raster.axis_operator(37, 37, sigma)
        gw = raster.axis_operator(29, 29, sigma)
        assert np.abs(gh @ img @ gw.T
                      - raster.gaussian_blur(img, sigma)).max() < 1e-12
    for sigma in (0.0, 2.5):
        dh = raster.axis_operator(37, 9, sigma)
        dw = raster.axis_operator(29, 7, sigma)
        assert np.abs(dh @ img @ dw.T
                      - raster.degrade_linear(img, 7, 9, sigma)).max() < 1e-12
    assert np.array_equal(raster.axis_operator(6, 6), np.eye(6))


BLUR_SIGMAS = (0.3, 0.5, 0.8, 1.0, 1.24, 1.6, 2.0, 2.48, 3.3, 4.0, 5.0, 6.1, 7.7, 8.0)
BLUR_SHAPES = ((3, 3), (15, 15), (1, 9), (57, 40), (20, 240), (231, 231))


@pytest.mark.parametrize("sigma", BLUR_SIGMAS)
def test_blur_equals_scipy_correlate1d(sigma):
    # scipy is the reference the numpy form replaced: equal, not close
    taps = raster.gaussian_taps(sigma)
    rng = np.random.default_rng(int(sigma * 100))
    for shape in BLUR_SHAPES:
        img = rng.normal(size=shape)
        want = correlate1d(correlate1d(img, taps, axis=0, mode="nearest"),
                           taps, axis=1, mode="nearest")
        got = raster.gaussian_blur(img, sigma)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want), shape
    for n in (3, 15, 57, 231):
        want = raster._resample_axis(
            correlate1d(np.eye(n), taps, axis=0, mode="nearest"), 15, 0, "cubic")
        assert np.array_equal(raster.axis_operator(n, 15, sigma), want), n


def test_resamplers_preserve_unit_range():
    rng = np.random.default_rng(11)
    for _ in range(5):
        img = rng.uniform(size=(10, 14))
        for fn in (raster.resize_bilinear, raster.resize_bicubic):
            out = fn(img, 23, 5)
            assert out.min() >= 0.0 and out.max() <= 1.0


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    img = rng.uniform(size=(17, 23))
    path = tmp_path / "img.pgm"
    raster.write_pgm(path, img)
    back = raster.read_pgm(path)
    assert back.shape == img.shape
    # 8-bit quantization: exact at the quantized grid
    assert np.abs(back - np.rint(img * 255) / 255.0).max() < 1e-12
    # quantized values round-trip bit-exactly
    raster.write_pgm(path, back)
    assert np.array_equal(raster.read_pgm(path), back)


def test_pgm_header_with_comments(tmp_path):
    path = tmp_path / "c.pgm"
    body = bytes([0, 128, 255, 64])
    path.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n" + body)
    img = raster.read_pgm(path)
    assert img.shape == (2, 2)
    assert np.allclose(img.ravel(), np.array([0, 128, 255, 64]) / 255.0)


def test_pgm_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(raster.RasterError):
        raster.read_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(raster.RasterError):
        raster.read_pgm(p)


def test_pgm_rejects_wrong_magic_and_trailing_bytes(tmp_path):
    p = tmp_path / "bad.pgm"
    body = bytes([0, 128, 255, 64])
    # the magic number is the whole first token
    for header in (b"P55 2 2 255\n", b"P5# c\n2 2 255\n", b" P5 2 2 255\n"):
        p.write_bytes(header + body)
        with pytest.raises(raster.RasterError, match="not a binary PGM"):
            raster.read_pgm(p)
    # one image per file: 16-bit samples under a maxval-255 header leave
    # half of them after the pixel data
    for tail in (b"\n", bytes(4), body):
        p.write_bytes(b"P5 2 2 255\n" + body + tail)
        with pytest.raises(raster.RasterError,
                           match=re.escape(f"{p}: {len(tail)} bytes after")):
            raster.read_pgm(p)
    p.write_bytes(b"P5 2 2 255\n" + body)
    assert raster.read_pgm(p).shape == (2, 2)


def test_pgm_codec_under_raster(tmp_path):
    # raster's PGM functions wrap the standard-library codec in numpy
    pixels = np.random.default_rng(12).integers(0, 256, size=(5, 7)).astype(np.uint8)
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    raster.write_pgm(a, pixels / 255.0)
    assert pgm.read(a) == (7, 5, 255, pixels.tobytes())
    pgm.write(b, 7, 5, pixels.tobytes())
    assert b.read_bytes() == a.read_bytes() == b"P5\n7 5\n255\n" + pixels.tobytes()
    # 16-bit samples are big-endian
    a.write_bytes(b"P5 2 1 65535\n" + bytes([1, 0, 255, 255]))
    assert pgm.read(a) == (2, 1, 65535, bytes([1, 0, 255, 255]))
    assert np.array_equal(raster.read_pgm(a), [[256 / 65535, 1.0]])
    # the codec raises the class raster's callers catch, naming the file
    for body in (b"P5\n2", b"P5 2 x 255\n", b"P5 0 2 255\n", b"P5 2 2 65536\n"):
        a.write_bytes(body)
        with pytest.raises(raster.RasterError, match=re.escape(str(a))):
            pgm.read(a)


def test_png_roundtrip_and_luma(tmp_path):
    pil = pytest.importorskip("PIL.Image")
    img = np.random.default_rng(5).uniform(size=(9, 9))
    path = tmp_path / "img.png"
    raster.write_png(path, img)
    back = raster.read_png(path)
    assert np.abs(back - np.rint(img * 255) / 255.0).max() < 1e-12
    # color to luma via BT.601
    rgb = np.zeros((4, 4, 3), dtype=np.uint8)
    rgb[..., 0] = 255
    pil.fromarray(rgb, mode="RGB").save(tmp_path / "red.png")
    red = raster.read_png(tmp_path / "red.png")
    assert np.allclose(red, 0.299, atol=1e-12)


def test_determinism_bit_identical():
    img = np.random.default_rng(6).uniform(size=(33, 29))
    a = raster.degrade(img, 11, 13, 1.7)
    b = raster.degrade(img, 11, 13, 1.7)
    assert np.array_equal(a, b)
