"""Verification protocol: genuine/impostor trials, trained linear score fusion
and the equal error rate.

Trial pairing follows the evaluation protocol: genuine trials compare each
image of a subject to that subject's remaining images (unordered, each pair
once); impostor trials compare the first image of every subject against the
second image of every other subject.

Scores travel as arrays: one row per trial, one column per comparator.
`train_fusion(genuine, impostor)` fits the weights (a0, a1, ..., aN) of the
linear form f = a0 + a1*s1 + ... + aN*sN to the genuine and impostor rows by
maximizing a ridge-stabilized binomial log-likelihood (genuine = 1), so the
fused score is genuine-high by construction regardless of per-comparator
polarity. `fuse(weights, scores)` applies the form to each row, and
`eer(genuine, impostor, polarity)` reads the equal error rate of one score
column split by label.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError


GENUINE = "genuine"
IMPOSTOR = "impostor"

RIDGE_LAMBDA = 1e-6
GRAD_TOL = 1e-8
MAX_NEWTON_ITER = 500


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray


def make_trials(records):
    """Pair (subject_id, image_id) records, in manifest order, into trials.

    Returns (genuine_pairs, impostor_pairs) as lists of (probe, gallery)
    image-id tuples. Subjects with fewer than two images simply contribute
    fewer pairs.
    """
    per_subject = {}
    for subject_id, image_id in records:
        per_subject.setdefault(subject_id, []).append(image_id)

    genuine = [pair for imgs in per_subject.values()
               for pair in itertools.combinations(imgs, 2)]
    impostor = [(imgs[0], other_imgs[1])
                for subject, imgs in per_subject.items()
                for other, other_imgs in per_subject.items()
                if other != subject and len(other_imgs) >= 2]
    return genuine, impostor


def train_fusion(genuine, impostor) -> np.ndarray:
    """Fit the fusion weights (a0, a1, ..., aN) by penalized logistic regression.

    `genuine` and `impostor` hold one row of N comparator scores per trial.
    Newton iterations with step halving; the intercept is unpenalized. Stops
    when the gradient infinity-norm drops below GRAD_TOL or after
    MAX_NEWTON_ITER rounds.
    """
    gen = np.asarray(genuine, dtype=np.float64)
    imp = np.asarray(impostor, dtype=np.float64)
    if len(gen) == 0 and len(imp) == 0:
        raise InputError("empty trial set")
    if len(gen) == 0 or len(imp) == 0:
        raise InputError("trial set contains a single class")
    if gen.ndim != 2 or imp.ndim != 2 or gen.shape[1] != imp.shape[1]:
        raise InputError("genuine and impostor rows differ in score arity")
    if gen.shape[1] < 1:
        raise InputError("trials carry no comparator scores")
    # genuine rows first, as match writes them: the row order of the design
    # matrix decides the last bits of the weights
    x = np.concatenate([gen, imp])
    y = np.concatenate([np.ones(len(gen)), np.zeros(len(imp))])
    n, arity = x.shape
    xa = np.hstack([np.ones((n, 1)), x])
    penalty = np.full(arity + 1, RIDGE_LAMBDA)
    penalty[0] = 0.0

    def objective(w):
        z = xa @ w
        # log(1 + exp(z)) - y*z, evaluated stably
        ll = np.logaddexp(0.0, z) - y * z
        return float(ll.sum()) + 0.5 * float(penalty @ (w * w))

    w = np.zeros(arity + 1)
    obj = objective(w)
    for _ in range(MAX_NEWTON_ITER):
        z = xa @ w
        p = 1.0 / (1.0 + np.exp(-z))
        grad = xa.T @ (p - y) + penalty * w
        if float(np.max(np.abs(grad))) < GRAD_TOL:
            break
        s = np.maximum(p * (1.0 - p), 1e-12)
        hess = (xa * s[:, None]).T @ xa + np.diag(penalty)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad
        # halve until the penalized likelihood improves
        t = 1.0
        for _ in range(60):
            w_try = w - t * step
            obj_try = objective(w_try)
            if obj_try <= obj:
                break
            t *= 0.5
        else:
            break
        w, obj = w_try, obj_try
    return w


def fuse(weights, scores) -> np.ndarray:
    """Apply the linear form to every score row; fused polarity is genuine-high."""
    w = np.asarray(weights, dtype=np.float64)
    rows = np.asarray(scores, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != len(w) - 1:
        raise InputError(
            f"score rows of shape {rows.shape} do not fit {len(w) - 1} weights")
    return w[0] + rows @ w[1:]


def eer(genuine, impostor, polarity: str = "genuine_high"):
    """Equal error rate with the ROC staircase it came from.

    Thresholds sweep the distinct score values (after polarity normalization
    to genuine-high); FAR(t) = fraction of impostor scores >= t, FRR(t) =
    fraction of genuine scores < t. The EER is read at the FAR-FRR sign
    change, linearly interpolated between the bracketing operating points, so
    it is invariant under any strictly increasing transform of the scores.
    """
    gen = np.asarray(genuine, dtype=np.float64)
    imp = np.asarray(impostor, dtype=np.float64)
    if gen.size == 0 or imp.size == 0:
        raise InputError("both genuine and impostor scores are required")
    if polarity == "genuine_low":
        gen, imp = -gen, -imp
    elif polarity != "genuine_high":
        raise InputError(f"unknown polarity {polarity!r}")

    gen_sorted = np.sort(gen)
    imp_sorted = np.sort(imp)
    # np.unique, without its numpy.ma import: one NaN at most, sorted last
    scores = np.sort(np.concatenate([gen_sorted, imp_sorted]))
    thresholds = scores[np.r_[True, (scores[1:] != scores[:-1]) & ~np.isnan(scores[:-1])]]
    far = 1.0 - np.searchsorted(imp_sorted, thresholds, side="left") / imp.size
    frr = np.searchsorted(gen_sorted, thresholds, side="left") / gen.size
    # sentinel above every score: FAR 0, FRR 1 guarantees a sign change
    thresholds = np.append(thresholds, np.inf)
    far = np.append(far, 0.0)
    frr = np.append(frr, 1.0)

    diff = far - frr
    idx = int(np.argmax(diff <= 0.0))
    if diff[idx] == 0.0:
        rate = 0.5 * (far[idx] + frr[idx])
    else:
        a = diff[idx - 1] / (diff[idx - 1] - diff[idx])
        far_c = far[idx - 1] + a * (far[idx] - far[idx - 1])
        frr_c = frr[idx - 1] + a * (frr[idx] - frr[idx - 1])
        rate = 0.5 * (far_c + frr_c)
    return float(rate), RocCurve(thresholds=thresholds, far=far, frr=frr)
