"""Verification protocol: genuine/impostor trials, trained linear score fusion
and the equal error rate.

Trial pairing follows the evaluation protocol: genuine trials compare each
image of a subject to that subject's remaining images (unordered, each pair
once); impostor trials compare the first image of every subject against the
second image of every other subject. Fusion is a linear form
f = a0 + a1*s1 + ... + aN*sN whose weights maximize a ridge-stabilized
binomial log-likelihood (genuine = 1), so the fused score is genuine-high by
construction regardless of per-comparator polarity.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError


class FusionEvalError(InputError):
    pass


GENUINE = "genuine"
IMPOSTOR = "impostor"

RIDGE_LAMBDA = 1e-6
GRAD_TOL = 1e-8
MAX_NEWTON_ITER = 500


@dataclass(frozen=True)
class Trial:
    probe_id: str
    gallery_id: str
    scores: tuple
    label: str
    fused: float | None = None


@dataclass(frozen=True)
class FusionModel:
    weights: tuple  # (a0, a1, ..., aN)

    @property
    def arity(self) -> int:
        return len(self.weights) - 1


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray
    eer: float


def make_trials(records):
    """Pair (subject_id, image_id) records, in manifest order, into trials.

    Returns (genuine_pairs, impostor_pairs) as lists of (probe, gallery)
    image-id tuples. Subjects with fewer than two images simply contribute
    fewer pairs.
    """
    order = []
    per_subject = {}
    for subject_id, image_id in records:
        if subject_id not in per_subject:
            per_subject[subject_id] = []
            order.append(subject_id)
        per_subject[subject_id].append(image_id)

    genuine = []
    for subject in order:
        imgs = per_subject[subject]
        for i in range(len(imgs)):
            for j in range(i + 1, len(imgs)):
                genuine.append((imgs[i], imgs[j]))

    impostor = []
    for subject in order:
        first = per_subject[subject][0]
        for other in order:
            if other == subject:
                continue
            imgs = per_subject[other]
            if len(imgs) >= 2:
                impostor.append((first, imgs[1]))
    return genuine, impostor


def _design_matrix(trials):
    if not trials:
        raise FusionEvalError("empty trial set")
    arity = len(trials[0].scores)
    if arity < 1:
        raise FusionEvalError("trials carry no comparator scores")
    for t in trials:
        if len(t.scores) != arity:
            raise FusionEvalError("trials have mixed score arity")
    x = np.array([t.scores for t in trials], dtype=np.float64)
    y = np.array([1.0 if t.label == GENUINE else 0.0 for t in trials])
    return x, y


def train_fusion(trials) -> FusionModel:
    """Fit the fusion weights by penalized logistic regression.

    Newton iterations with step halving; the intercept is unpenalized. Stops
    when the gradient infinity-norm drops below GRAD_TOL or after
    MAX_NEWTON_ITER rounds.
    """
    x, y = _design_matrix(trials)
    if y.min() == y.max():
        raise FusionEvalError("trial set contains a single class")
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
    return FusionModel(weights=tuple(float(v) for v in w))


def fuse_scores(model: FusionModel, trials):
    """Apply the linear form to every trial; fused polarity is genuine-high."""
    out = []
    w = np.asarray(model.weights)
    for t in trials:
        if len(t.scores) != model.arity:
            raise FusionEvalError(
                f"trial arity {len(t.scores)} != model arity {model.arity}")
        fused = float(w[0] + w[1:] @ np.asarray(t.scores, dtype=np.float64))
        out.append(replace(t, fused=fused))
    return out


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
        raise FusionEvalError("both genuine and impostor scores are required")
    if polarity == "genuine_low":
        gen, imp = -gen, -imp
    elif polarity != "genuine_high":
        raise FusionEvalError(f"unknown polarity {polarity!r}")

    gen_sorted = np.sort(gen)
    imp_sorted = np.sort(imp)
    thresholds = np.unique(np.concatenate([gen_sorted, imp_sorted]))
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
    return float(rate), RocCurve(thresholds=thresholds, far=far, frr=frr,
                                 eer=float(rate))
