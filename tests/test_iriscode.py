import math

import numpy as np
import pytest

from irissr import dataset, iriscode
from irissr.errors import InputError


def render_annulus(size, ann, pattern, rotation=0.0):
    """Paint pattern(rn, theta) into the annulus; pupil dark, sclera bright."""
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    r = np.hypot(xs - ann.px, ys - ann.py)
    theta = np.arctan2(ys - ann.py, xs - ann.px) - rotation
    rn = (r - ann.pupil_radius) / (ann.iris_radius - ann.pupil_radius)
    img = np.where(r < ann.pupil_radius, 0.05,
                   np.where(r < ann.iris_radius, pattern(rn, theta), 0.9))
    return np.clip(img, 0.0, 1.0)


def make_ann(size=128):
    c = (size - 1) / 2.0
    return dataset.IrisAnnotation(px=c, py=c, pupil_radius=0.14 * size,
                                  iris_radius=0.38 * size,
                                  sclera_radius=0.48 * size)


# --- unwrap -------------------------------------------------------------------

def test_unwrap_radial_pattern_rows_constant():
    # value depends only on the normalized radius, over the whole field so no
    # region edge leaks into the boundary sample rows
    ann = make_ann()
    ys, xs = np.mgrid[0:128, 0:128].astype(float)
    r = np.hypot(xs - ann.px, ys - ann.py)
    rn = (r - ann.pupil_radius) / (ann.iris_radius - ann.pupil_radius)
    img = 0.5 + 0.3 * np.cos(2 * np.pi * rn)
    norm = iriscode.unwrap(img, ann)
    assert norm.values.shape == (iriscode.RADIAL_RES, iriscode.ANGULAR_RES)
    assert norm.mask.all()
    assert norm.values.var(axis=1).max() < 1e-4


def test_unwrap_rotation_becomes_column_shift():
    ann = make_ann()
    k = 5  # shift in whole angular samples
    dtheta = 2 * math.pi * k / iriscode.ANGULAR_RES

    def pattern(rn, th):
        return 0.5 + 0.25 * np.cos(9 * th) + 0.15 * np.cos(2 * np.pi * rn)

    base = iriscode.unwrap(render_annulus(128, ann, pattern), ann)
    rot = iriscode.unwrap(render_annulus(128, ann, pattern, rotation=dtheta), ann)
    shifted = np.roll(base.values, k, axis=1)
    assert np.abs(rot.values - shifted).mean() < 0.01


def test_unwrap_degenerate_annotation():
    ann = dataset.IrisAnnotation(px=64, py=64, pupil_radius=20,
                                 iris_radius=20, sclera_radius=40)
    with pytest.raises(InputError,
                       match="degenerate annotation: pupil radius 20 >= iris radius 20"):
        iriscode.unwrap(np.zeros((128, 128)), ann)


def test_unwrap_nonpositive_pupil_radius():
    for radius in (0.0, -3.0):
        ann = dataset.IrisAnnotation(px=64, py=64, pupil_radius=radius,
                                     iris_radius=20, sclera_radius=40)
        with pytest.raises(InputError, match="pupil radius must be positive"):
            iriscode.unwrap(np.zeros((128, 128)), ann)


def test_encode_rejects_narrow_plane():
    norm = iriscode.NormalizedIris(values=np.full((4, 7), 0.5),
                                   mask=np.ones((4, 7), dtype=bool))
    with pytest.raises(InputError, match="angular resolution 7 too small to filter"):
        iriscode.encode(norm)


def test_unwrap_out_of_bounds_masked():
    ann = dataset.IrisAnnotation(px=10, py=64, pupil_radius=5,
                                 iris_radius=30, sclera_radius=40)
    norm = iriscode.unwrap(np.full((128, 128), 0.5), ann)
    assert not norm.mask.all()
    assert norm.mask.any()
    assert np.all(norm.values[~norm.mask] == 0.0)


# --- encode -------------------------------------------------------------------

def test_encode_constant_row_fully_masked():
    values = np.full((4, 240), 0.5)
    norm = iriscode.NormalizedIris(values=values, mask=np.ones_like(values, bool))
    tpl = iriscode.encode(norm)
    assert not tpl.mask.any()
    assert tpl.code.shape == (4, 480)


def test_encode_pure_tone_phase_quadrants():
    a_r = 240
    wavelength = 20.0
    t = np.arange(a_r)
    row = 0.5 + 0.4 * np.cos(2 * np.pi * t / wavelength)
    values = np.tile(row, (2, 1))
    norm = iriscode.NormalizedIris(values=values, mask=np.ones_like(values, bool))
    tpl = iriscode.encode(norm)
    # analytic signal of the tone: phase advances 2*pi/wavelength per sample
    phase = (2 * np.pi * t / wavelength) % (2 * np.pi)
    expected_re = np.cos(phase) >= 0
    expected_im = np.sin(phase) >= 0
    # ignore samples within one sample step of a quadrant boundary
    step = 2 * np.pi / wavelength
    dist = np.min(np.stack([np.abs(((phase - q * np.pi / 2) + np.pi) % (2 * np.pi)
                                   - np.pi) for q in range(4)]), axis=0)
    solid = dist > step
    assert np.array_equal(tpl.code[0, 0::2][solid], expected_re[solid])
    assert np.array_equal(tpl.code[0, 1::2][solid], expected_im[solid])
    assert tpl.mask[0].all()


def test_encode_deterministic(corpus20):
    img, ann = corpus20[0]
    norm = iriscode.unwrap(img, ann)
    t1 = iriscode.encode(norm)
    t2 = iriscode.encode(norm)
    assert np.array_equal(t1.code, t2.code)
    assert np.array_equal(t1.mask, t2.mask)


# --- hamming ------------------------------------------------------------------

def random_template(rng, r=8, a=64):
    code = rng.integers(0, 2, size=(r, 2 * a)).astype(bool)
    mask = np.ones_like(code)
    return iriscode.IrisTemplate(code=code, mask=mask)


def test_hamming_self_is_zero(corpus20):
    img, ann = corpus20[2]
    tpl = iriscode.encode(iriscode.unwrap(img, ann))
    assert iriscode.hamming(tpl, tpl) == 0.0


def test_hamming_complement_is_one():
    tpl = random_template(np.random.default_rng(0))
    comp = iriscode.IrisTemplate(code=~tpl.code, mask=tpl.mask.copy())
    assert iriscode.hamming(tpl, comp, max_shift=0) == 1.0


def test_hamming_recovers_rotation():
    rng = np.random.default_rng(1)
    tpl = random_template(rng)
    for k in (1, 4, 8):
        rolled = iriscode.IrisTemplate(code=np.roll(tpl.code, 2 * k, axis=1),
                                       mask=np.roll(tpl.mask, 2 * k, axis=1))
        assert iriscode.hamming(tpl, rolled, max_shift=8) == 0.0
        back = iriscode.IrisTemplate(code=np.roll(tpl.code, -2 * k, axis=1),
                                     mask=np.roll(tpl.mask, -2 * k, axis=1))
        assert iriscode.hamming(tpl, back, max_shift=8) == 0.0


def test_hamming_symmetric_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_template(rng)
        b = random_template(rng)
        # random partial masks
        a.mask[rng.uniform(size=a.mask.shape) < 0.2] = False
        b.mask[rng.uniform(size=b.mask.shape) < 0.2] = False
        assert iriscode.hamming(a, b) == pytest.approx(
            iriscode.hamming(b, a), abs=1e-15)


def test_hamming_bounds_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_template(rng)
        b = random_template(rng)
        hd = iriscode.hamming(a, b)
        assert 0.0 <= hd <= 1.0


def test_hamming_empty_mask_error():
    code = np.zeros((2, 8), dtype=bool)
    empty = iriscode.IrisTemplate(code=code, mask=np.zeros_like(code))
    full = iriscode.IrisTemplate(code=code, mask=np.ones_like(code))
    with pytest.raises(InputError, match="no jointly valid bits at any shift"):
        iriscode.hamming(empty, full)


def test_hamming_dims_mismatch():
    a = random_template(np.random.default_rng(4), r=4, a=32)
    b = random_template(np.random.default_rng(5), r=4, a=16)
    with pytest.raises(InputError, match="template dims differ"):
        iriscode.hamming(a, b)


# --- rotation robustness on the synthetic corpus -------------------------------

def test_rotation_robustness_same_identity(corpus20_sessions, templates20_sessions):
    genuine = [iriscode.hamming(templates20_sessions[(s, a)],
                                templates20_sessions[(s, b)])
               for s in range(20) for a in range(3) for b in range(a + 1, 3)]
    impostor = [iriscode.hamming(templates20_sessions[(s1, 0)],
                                 templates20_sessions[(s2, 1)])
                for s1 in range(20) for s2 in range(20) if s1 != s2]
    assert max(genuine) < 0.15
    assert min(impostor) > 0.35
