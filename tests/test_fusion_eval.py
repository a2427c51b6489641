import math
import re

import numpy as np
import pytest

from irissr import fusion_eval as fe
from irissr.errors import InputError


# --- brute-force oracles --------------------------------------------------------

def trials_oracle(records):
    """Quadratic enumeration of the stated pairing rules."""
    genuine = []
    for i, (s1, img1) in enumerate(records):
        for j, (s2, img2) in enumerate(records):
            if j <= i:
                continue
            if s1 == s2:
                genuine.append((img1, img2))
    subjects = []
    for s, _ in records:
        if s not in subjects:
            subjects.append(s)
    by_subject = {s: [img for t, img in records if t == s] for s in subjects}
    impostor = []
    for s in subjects:
        first = by_subject[s][0]
        for other in subjects:
            if other != s and len(by_subject[other]) >= 2:
                impostor.append((first, by_subject[other][1]))
    return genuine, impostor


def eer_oracle(genuine, impostor):
    """Exhaustive threshold sweep with scalar arithmetic (genuine-high)."""
    points = []
    for t in sorted(set(genuine) | set(impostor)) + [math.inf]:
        far = sum(s >= t for s in impostor) / len(impostor)
        frr = sum(s < t for s in genuine) / len(genuine)
        points.append((far, frr))
    for (f0, r0), (f1, r1) in zip(points, points[1:]):
        d0, d1 = f0 - r0, f1 - r1
        if d0 == 0:
            return (f0 + r0) / 2
        if d0 > 0 and d1 <= 0:
            if d1 == 0:
                return (f1 + r1) / 2
            a = d0 / (d0 - d1)
            return ((f0 + a * (f1 - f0)) + (r0 + a * (r1 - r0))) / 2
    raise AssertionError("no crossing found")


# --- make_trials -----------------------------------------------------------------

def test_three_subjects_two_images():
    records = [(s, f"{s}-{i}") for s in "abc" for i in range(2)]
    genuine, impostor = fe.make_trials(records)
    assert len(genuine) == 3
    assert len(impostor) == 6
    assert ("a-0", "a-1") in genuine
    assert ("a-0", "b-1") in impostor and ("b-0", "a-1") in impostor


def test_single_subject_no_impostors():
    genuine, impostor = fe.make_trials([("a", "1"), ("a", "2"), ("a", "3")])
    assert len(genuine) == 3
    assert impostor == []


def test_subject_with_one_image():
    records = [("a", "a1"), ("b", "b1"), ("b", "b2")]
    genuine, impostor = fe.make_trials(records)
    assert genuine == [("b1", "b2")]
    # 'a' has no second image, so nobody pairs against it; 'a' still probes b
    assert impostor == [("a1", "b2")]


def test_make_trials_equals_bruteforce_on_random_manifests():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n_subj = int(rng.integers(1, 12))
        records = []
        for s in range(n_subj):
            for i in range(int(rng.integers(1, 6))):
                records.append((f"s{s}", f"s{s}-{i}"))
        got = fe.make_trials(records)
        want = trials_oracle(records)
        assert sorted(got[0]) == sorted(want[0])
        assert got[1] == want[1]


# --- eer ---------------------------------------------------------------------------

def test_eer_perfect_separation():
    rate, _ = fe.eer([1.0] * 5, [0.0] * 7)
    assert rate == 0.0


def test_eer_identical_distributions():
    scores = [0.2, 0.5, 0.9, 0.4]
    rate, _ = fe.eer(scores, list(scores))
    assert rate == pytest.approx(0.5, abs=1e-12)


def test_eer_hand_fixture_exactly_one_third():
    rate, _ = fe.eer([0.9, 0.8, 0.4], [0.6, 0.3, 0.2])
    assert rate == pytest.approx(1.0 / 3.0, abs=0)  # exact


def test_eer_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        gen = list(rng.normal(1.0, 1.0, size=int(rng.integers(3, 40))))
        imp = list(rng.normal(0.0, 1.0, size=int(rng.integers(3, 40))))
        rate, _ = fe.eer(gen, imp)
        assert rate == pytest.approx(eer_oracle(gen, imp), abs=1e-12)


def test_eer_monotone_transform_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        gen = rng.normal(0.6, 0.3, size=25)
        imp = rng.normal(0.0, 0.4, size=40)
        base, _ = fe.eer(gen, imp)
        exp_rate, _ = fe.eer(np.exp(gen), np.exp(imp))
        aff_rate, _ = fe.eer(3.0 * gen + 7.0, 3.0 * imp + 7.0)
        assert exp_rate == pytest.approx(base, abs=1e-12)
        assert aff_rate == pytest.approx(base, abs=1e-12)


def test_eer_polarity_negation_identity():
    rng = np.random.default_rng(3)
    gen = rng.normal(0.2, 0.2, size=30)   # genuine LOW scores (distances)
    imp = rng.normal(0.8, 0.2, size=50)
    low_rate, _ = fe.eer(gen, imp, polarity="genuine_low")
    neg_rate, _ = fe.eer(-gen, -imp, polarity="genuine_high")
    assert low_rate == neg_rate


def test_eer_thresholds_equal_numpy_unique():
    # ties, both signed zeros and NaNs: the sweep keeps np.unique's values,
    # down to the sign of the zero kept and a single NaN
    rng = np.random.default_rng(5)
    values = np.array([-1.0, -0.0, 0.0, 0.25, 0.5, np.nan, -np.nan])
    for _ in range(50):
        gen = rng.choice(values, size=int(rng.integers(1, 12)))
        imp = rng.choice(values, size=int(rng.integers(1, 12)))
        for polarity in ("genuine_high", "genuine_low"):
            _, roc = fe.eer(gen, imp, polarity)
            sign = -1.0 if polarity == "genuine_low" else 1.0
            want = np.unique(np.concatenate([np.sort(sign * gen), np.sort(sign * imp)]))
            assert roc.thresholds[:-1].tobytes() == want.tobytes()


def test_eer_empty_class_rejected():
    with pytest.raises(InputError, match="both genuine and impostor scores are required"):
        fe.eer([], [0.1])
    with pytest.raises(InputError, match="both genuine and impostor scores are required"):
        fe.eer([0.1], [])


def test_eer_unknown_polarity_rejected():
    with pytest.raises(InputError, match="unknown polarity 'genuine_middle'"):
        fe.eer([0.9], [0.1], "genuine_middle")


def test_roc_staircase_monotone():
    rng = np.random.default_rng(4)
    _, roc = fe.eer(rng.normal(1, 1, 50), rng.normal(0, 1, 80))
    assert np.all(np.diff(roc.far) <= 1e-15)
    assert np.all(np.diff(roc.frr) >= -1e-15)


# --- fusion -------------------------------------------------------------------------

def test_fuse_scores_linear_form():
    fused = fe.fuse((1.0, 2.0, -3.0), [(0.5, 0.1)])
    assert fused[0] == pytest.approx(1.0 + 2.0 * 0.5 - 3.0 * 0.1)  # = 1.7
    assert fused[0] == pytest.approx(1.7)


def test_fuse_scores_zero_and_identity():
    rows = [(0.4,), (0.9,)]
    zero = fe.fuse((0.0, 0.0), rows)
    assert all(v == 0.0 for v in zero)
    ident = fe.fuse((0.0, 1.0), rows)
    assert list(ident) == [0.4, 0.9]


def test_fuse_arity_mismatch():
    with pytest.raises(InputError,
                       match=re.escape("score rows of shape (1, 2) do not fit 1 weights")):
        fe.fuse((0.0, 1.0), [(0.1, 0.2)])


def test_train_fusion_uninformative_scores():
    rng = np.random.default_rng(5)
    shared = rng.normal(size=(300, 2))
    weights = fe.train_fusion(shared, shared)
    assert max(abs(w) for w in weights[1:]) < 1e-3
    fused = fe.fuse(weights, shared)
    rate, _ = fe.eer(fused, fused)
    assert rate == pytest.approx(0.5, abs=1e-9)


def test_train_fusion_separable_gives_zero_eer():
    gen = [(1.0 + 0.01 * i,) for i in range(40)]
    imp = [(-1.0 - 0.01 * i,) for i in range(40)]
    weights = fe.train_fusion(gen, imp)
    rate, _ = fe.eer(fe.fuse(weights, gen), fe.fuse(weights, imp))
    assert rate == 0.0


def test_train_fusion_duplicated_comparator_matches_single():
    rng = np.random.default_rng(6)
    gen1 = rng.normal(0.8, 0.5, size=150)
    imp1 = rng.normal(0.0, 0.5, size=250)
    single, _ = fe.eer(gen1, imp1)
    gen = [(g, g) for g in gen1]
    imp = [(i, i) for i in imp1]
    weights = fe.train_fusion(gen, imp)
    dup, _ = fe.eer(fe.fuse(weights, gen), fe.fuse(weights, imp))
    # one operating point of slack: steps are 1/len(genuine)
    assert abs(dup - single) <= 1.0 / len(gen1) + 1e-12


def test_train_fusion_single_class_rejected():
    with pytest.raises(InputError, match="trial set contains a single class"):
        fe.train_fusion([(0.5,)], [])


def test_train_fusion_misshapen_rows_rejected():
    with pytest.raises(InputError, match="genuine and impostor rows differ in score arity"):
        fe.train_fusion([(0.5, 0.2)], [(0.1,)])
    with pytest.raises(InputError, match="trials carry no comparator scores"):
        fe.train_fusion(np.zeros((2, 0)), np.zeros((3, 0)))


def test_fused_not_worse_than_ignoring_a_comparator():
    rng = np.random.default_rng(7)
    for _ in range(5):
        gen = np.column_stack([rng.normal(0.9, 1, 120), rng.normal(0.5, 1, 120)])
        imp = np.column_stack([rng.normal(0, 1, 200), rng.normal(0, 1, 200)])
        singles = []
        for k in (0, 1):
            r, _ = fe.eer(gen[:, k], imp[:, k])
            singles.append(r)
        weights = fe.train_fusion(gen, imp)
        rate, _ = fe.eer(fe.fuse(weights, gen), fe.fuse(weights, imp))
        assert rate <= max(singles) + 1.0 / 120 + 1e-12
