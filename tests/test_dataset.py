import numpy as np
import pytest

from irissr import dataset, quality, raster
from irissr.errors import InputError


def make_ann(px=50.0, py=50.0, pr=10.0, ir=25.0, sr=40.0):
    return dataset.IrisAnnotation(px=px, py=py, pupil_radius=pr,
                                  iris_radius=ir, sclera_radius=sr)


# --- manifests --------------------------------------------------------------

HEADER = "path,subject,session,px,py,pr,ir,sr\n"


def test_manifest_empty(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(HEADER)
    assert dataset.load_manifest(p) == []


def test_manifest_one_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(HEADER + "img/a.pgm,s001,1,50,50,10,25,40\n")
    recs = dataset.load_manifest(p)
    assert len(recs) == 1
    assert recs[0].subject_id == "s001"
    assert recs[0].annotation.iris_radius == 25.0


def test_manifest_invariant_violation_names_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(HEADER + "ok.pgm,s1,1,50,50,10,25,40\n"
                          "bad.pgm,s2,1,50,50,30,25,40\n")
    with pytest.raises(InputError, match="annotation radii must satisfy") as exc:
        dataset.load_manifest(p)
    assert "line 3" in str(exc.value)
    assert "bad.pgm" in str(exc.value)


def test_manifest_parse_error_has_line_number(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(HEADER + "a.pgm,s1,one,50,50,10,25,40\n")
    with pytest.raises(InputError, match="invalid literal for int") as exc:
        dataset.load_manifest(p)
    assert "line 2" in str(exc.value)


def test_manifest_duplicate_path_rejected(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(HEADER + "a.pgm,s1,1,50,50,10,25,40\n"
                          "a.pgm,s2,1,50,50,10,25,40\n")
    with pytest.raises(InputError, match="line 3: duplicate path 'a.pgm'"):
        dataset.load_manifest(p)


def test_manifest_roundtrip(tmp_path):
    recs = [dataset.ManifestRecord("x.pgm", "s9", 2, make_ann())]
    p = tmp_path / "m.csv"
    dataset.save_manifest(p, recs)
    assert dataset.load_manifest(p) == recs


def test_split_by_subject_order():
    recs = [dataset.ManifestRecord(f"{i}.pgm", s, 0, make_ann())
            for i, s in enumerate(["b", "a", "b", "c", "a"])]
    train, target = dataset.split_by_subject(recs, 2)
    assert {r.subject_id for r in train} == {"a", "b"}
    assert {r.subject_id for r in target} == {"c"}
    # order preserved within splits
    assert [r.image_path for r in train] == ["0.pgm", "1.pgm", "2.pgm", "4.pgm"]


# --- preprocessing ----------------------------------------------------------

def test_normalize_sclera_identity():
    img = np.random.default_rng(0).uniform(size=(100, 100))
    ann = make_ann()
    out, scaled = dataset.normalize_sclera(img, ann, ann.sclera_radius)
    assert np.array_equal(out, img)
    assert scaled == ann


def test_normalize_sclera_halves():
    img = np.random.default_rng(1).uniform(size=(100, 80))
    ann = make_ann(sr=40.0)
    out, scaled = dataset.normalize_sclera(img, ann, 20.0)
    assert out.shape == (50, 40)
    assert scaled.pupil_radius == pytest.approx(5.0)
    assert scaled.iris_radius == pytest.approx(12.5)
    assert abs(scaled.sclera_radius - 20.0) < 0.5
    assert scaled.px == pytest.approx(25.0)


def test_normalize_sclera_upscale_allowed():
    img = np.random.default_rng(2).uniform(size=(100, 100))
    ann = make_ann(sr=40.0)
    out, scaled = dataset.normalize_sclera(img, ann, 60.0)
    assert out.shape == (150, 150)
    assert scaled.iris_radius == pytest.approx(37.5)


def test_crop_square_centered():
    img = np.random.default_rng(3).uniform(size=(300, 300))
    ann = make_ann(px=150.2, py=149.8, pr=20, ir=60, sr=100)
    result = dataset.crop_square(img, ann, 231)
    assert result is not None
    crop, moved = result
    assert crop.shape == (231, 231)
    cx, cy = round(ann.px), round(ann.py)
    assert np.array_equal(crop, img[cy - 115:cy + 116, cx - 115:cx + 116])
    assert moved.px == pytest.approx(ann.px - (cx - 115))


def test_crop_square_discard_at_corner():
    img = np.zeros((300, 300))
    ann = make_ann(px=5.0, py=5.0, pr=2, ir=3, sr=4)
    assert dataset.crop_square(img, ann, 231) is None


def test_crop_square_rejects_side_0():
    with pytest.raises(InputError, match="crop side must be >= 1, got 0"):
        dataset.crop_square(np.zeros((8, 8)), make_ann(px=4.0, py=4.0), 0)


def test_crop_square_whole_image():
    img = np.random.default_rng(4).uniform(size=(231, 231))
    ann = make_ann(px=115.0, py=115.0, pr=20, ir=60, sr=100)
    result = dataset.crop_square(img, ann, 231)
    assert result is not None
    crop, _ = result
    assert np.array_equal(crop, img)


def test_preprocess_deterministic(corpus20):
    img, ann = corpus20[0]
    a = dataset.preprocess(img, ann, 100.0, 200)
    b = dataset.preprocess(img, ann, 100.0, 200)
    assert a is not None and b is not None
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]
    assert a[0].shape == (200, 200)


# --- LR simulation ----------------------------------------------------------

def test_simulate_lr_constant():
    img = np.full((64, 64), 0.25)
    lr = dataset.simulate_lr(img, 16, 16, 2.0)
    base = raster.resize_bicubic(lr, 64, 64)
    assert np.allclose(lr, 0.25, atol=1e-12)
    assert np.allclose(base, 0.25, atol=1e-12)


def test_simulate_lr_13_to_319():
    img = np.random.default_rng(5).uniform(size=(319, 319))
    lr = dataset.simulate_lr(img, 13, 13, raster.antialias_sigma(319, 319, 13, 13))
    base = raster.resize_bicubic(lr, 319, 319)
    assert lr.shape == (13, 13)
    assert base.shape == (319, 319)


def test_simulate_lr_baseline_psnr_regression(corpus20):
    # pipeline self-oracle: value pinned from the first verified run
    img, _ = corpus20[0]
    lr = dataset.simulate_lr(img, 57, 57, raster.antialias_sigma(231, 231, 57, 57))
    base = raster.resize_bicubic(lr, 231, 231)
    assert quality.psnr(img, base) == pytest.approx(29.630032, abs=1e-3)


# --- synthetic corpus -------------------------------------------------------

def test_synth_deterministic():
    a, ann_a = dataset.synth_iris(7, 128)
    b, ann_b = dataset.synth_iris(7, 128)
    assert np.array_equal(a, b)
    assert ann_a == ann_b
    c, _ = dataset.synth_iris(7, 128, jitter=1)
    d, _ = dataset.synth_iris(7, 128, jitter=1)
    assert np.array_equal(c, d)
    assert not np.array_equal(a, c)


def test_synth_annotation_matches_drawn_circles():
    img, ann = dataset.synth_iris(3, 128)
    assert 0 < ann.pupil_radius < ann.iris_radius <= ann.sclera_radius
    ys, xs = np.mgrid[0:128, 0:128]
    r = np.hypot(xs - ann.px, ys - ann.py)
    assert img[r < ann.pupil_radius - 2].max() < 0.1          # dark pupil
    sclera_ring = (r > ann.iris_radius + 2) & (r < ann.sclera_radius - 2)
    assert img[sclera_ring].min() > 0.8                        # bright sclera
    annulus = (r > ann.pupil_radius + 2) & (r < ann.iris_radius - 2)
    assert img[annulus].std() > 0.05                           # textured annulus


def test_synth_size_too_small():
    with pytest.raises(InputError, match="size must be >= 64, got 32"):
        dataset.synth_iris(0, 32)


def test_synth_seed_pairs_differ_in_annulus():
    # pinned from the oracle run: 100 random seed pairs all exceed 0.05
    rng = np.random.default_rng(7)
    cache = {}

    def get(seed):
        if seed not in cache:
            cache[seed] = dataset.synth_iris(seed, 128)
        return cache[seed]

    worst = 1.0
    for _ in range(100):
        s1, s2 = rng.choice(60, size=2, replace=False)
        (i1, a1), (i2, _) = get(int(s1)), get(int(s2))
        ys, xs = np.mgrid[0:128, 0:128]
        r = np.hypot(xs - a1.px, ys - a1.py)
        annulus = (r > a1.pupil_radius + 1) & (r < a1.iris_radius - 1)
        worst = min(worst, float(np.abs(i1 - i2)[annulus].mean()))
    assert worst > 0.05
