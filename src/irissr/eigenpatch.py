"""Position-patch PCA hallucination: per-position eigen-decomposition of
co-located LR training patches, with projection weights transferred to the
co-located HR patches.

For every grid position the M training LR patches are centered and the M x M
Gram matrix of deviations is eigendecomposed (the dual form: M is small, the
patch dimension may not be). Eigen-patches E = X V L^{-1/2} form an
orthonormal basis of the centered patch span. Reconstruction projects the
input patch onto E, converts the projection to per-sample coefficients
c = V L^{-1/2} w, and synthesizes the HR patch as
mean_hr + sum_i c_i (h_i - mean_hr); overlapping patches are blended by
uniform per-pixel averaging.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import raster
from .errors import InputError


PATCH_SIZE = 4
STRIDE = 2
DEFAULT_VARIANCE_KEEP = 0.98
EIGENVALUE_FLOOR = 1e-10

_FORMAT_VERSION = "epm-1"


def grid_positions(extent: int, patch: int, stride: int) -> list[int]:
    """Top-left offsets covering [0, extent): stride steps, last one clamped."""
    if not (1 <= stride <= patch):
        raise InputError(f"need 1 <= stride <= patch_size, got stride={stride}")
    if patch > extent:
        raise InputError(f"patch size {patch} exceeds plane extent {extent}")
    xs = list(range(0, extent - patch + 1, stride))
    if xs[-1] != extent - patch:
        xs.append(extent - patch)
    return xs


def patch_positions(width: int, height: int, patch: int, stride: int) -> list:
    """Top-left (x, y) of every patch covering a width x height plane, row-major."""
    xs = grid_positions(width, patch, stride)
    return [(x, y) for y in grid_positions(height, patch, stride) for x in xs]


def _check_axis_coverage(offsets, patch, extent, axis_name):
    off = sorted(set(offsets))
    if off[0] != 0 or off[-1] + patch != extent:
        raise InputError(f"{axis_name} patches do not reach the plane edges")
    for a, b in zip(off, off[1:]):
        if b > a + patch:
            raise InputError(f"{axis_name} patch gap between offsets {a} and {b}")


@dataclass
class EigenPatchModel:
    lr_w: int
    lr_h: int
    hr_w: int
    hr_h: int
    patch_size: int
    stride: int
    hp_w: int
    hp_h: int
    sigma: float
    positions_lr: np.ndarray   # (P, 2) int, (x, y)
    positions_hr: np.ndarray   # (P, 2) int
    means_lr: np.ndarray       # (P, d)
    means_hr: np.ndarray       # (P, hd)
    deviations: np.ndarray     # (P, d, M) centered LR training patches
    eigvecs: np.ndarray        # (P, M, Kmax), zero-padded past kcounts
    eigvals: np.ndarray        # (P, Kmax), padded with 1.0
    kcounts: np.ndarray        # (P,)
    hr_patches: np.ndarray     # (P, M, hd) raw co-located HR training patches
    provenance: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def n_positions(self) -> int:
        return self.positions_lr.shape[0]

    @property
    def n_train(self) -> int:
        return self.deviations.shape[2]

    def eigen_patches(self, i: int) -> np.ndarray:
        """Orthonormal eigen-patch basis E = X V L^{-1/2} at position i, (d, K)."""
        k = int(self.kcounts[i])
        if k == 0:
            return np.zeros((self.deviations.shape[1], 0))
        v = self.eigvecs[i, :, :k]
        lam = self.eigvals[i, :k]
        return self.deviations[i] @ (v / np.sqrt(lam))


def train(hr_images, lr_w: int, lr_h: int, sigma: float,
          variance_keep: float = DEFAULT_VARIANCE_KEEP,
          provenance: str = "") -> EigenPatchModel:
    """Build the per-position PCA model from aligned same-size HR images.

    LR counterparts are produced by the same degradation used at test time.
    Patches are PATCH_SIZE x PATCH_SIZE LR pixels, STRIDE apart.
    `variance_keep` truncates components at that cumulative-variance fraction
    (1.0 disables truncation); eigenvalues below EIGENVALUE_FLOOR are always
    dropped, so K <= M - 1.
    """
    hr_images = [np.asarray(im, dtype=np.float64) for im in hr_images]
    if not hr_images:
        raise InputError("empty training set")
    hr_h, hr_w = hr_images[0].shape
    for im in hr_images[1:]:
        if im.shape != (hr_h, hr_w):
            raise InputError(
                f"training image dims differ: {im.shape} vs {(hr_h, hr_w)}")
    if lr_w > hr_w or lr_h > hr_h:
        raise InputError("LR plane must not exceed the HR plane")

    lr_images = [raster.degrade(im, lr_w, lr_h, sigma) for im in hr_images]
    positions_lr = np.array(patch_positions(lr_w, lr_h, PATCH_SIZE, STRIDE),
                            dtype=np.int64)

    fx = hr_w / lr_w
    fy = hr_h / lr_h
    hp_w = int(math.ceil(PATCH_SIZE * fx))
    hp_h = int(math.ceil(PATCH_SIZE * fy))

    positions_hr = np.empty_like(positions_lr)
    for i, (x, y) in enumerate(positions_lr):
        positions_hr[i, 0] = min(max(int(round(x * fx)), 0), hr_w - hp_w)
        positions_hr[i, 1] = min(max(int(round(y * fy)), 0), hr_h - hp_h)
    _check_axis_coverage(positions_hr[:, 0], hp_w, hr_w, "HR x")
    _check_axis_coverage(positions_hr[:, 1], hp_h, hr_h, "HR y")

    m = len(hr_images)
    p = len(positions_lr)
    d = PATCH_SIZE * PATCH_SIZE
    hd = hp_w * hp_h

    means_lr = np.empty((p, d))
    means_hr = np.empty((p, hd))
    deviations = np.empty((p, d, m))
    hr_patches = np.empty((p, m, hd))
    eig_list = []

    for i in range(p):
        x, y = positions_lr[i]
        patches = np.stack([im[y:y + PATCH_SIZE, x:x + PATCH_SIZE].ravel()
                            for im in lr_images])  # (M, d)
        mean_lr = patches.mean(axis=0)
        xc = (patches - mean_lr).T  # (d, M)
        means_lr[i] = mean_lr
        deviations[i] = xc

        hx, hy = positions_hr[i]
        hpat = np.stack([im[hy:hy + hp_h, hx:hx + hp_w].ravel()
                         for im in hr_images])  # (M, hd)
        hr_patches[i] = hpat
        means_hr[i] = hpat.mean(axis=0)

        gram = xc.T @ xc
        lam, vec = np.linalg.eigh(gram)
        order = np.argsort(lam)[::-1]
        lam = np.clip(lam[order], 0.0, None)
        vec = vec[:, order]
        total = lam.sum()
        k = 0
        if total > 0:
            cum = np.cumsum(lam)
            k_var = int(np.searchsorted(cum, variance_keep * total) + 1)
            k = min(k_var, m - 1) if m > 1 else 0
            while k > 0 and lam[k - 1] <= EIGENVALUE_FLOOR:
                k -= 1
        eig_list.append((lam[:k], vec[:, :k]))

    kmax = max((len(lam) for lam, _ in eig_list), default=0)
    kmax = max(kmax, 1)  # keep arrays well-shaped even for all-degenerate models
    eigvals = np.ones((p, kmax))
    eigvecs = np.zeros((p, m, kmax))
    kcounts = np.zeros(p, dtype=np.int64)
    for i, (lam, vec) in enumerate(eig_list):
        kcounts[i] = len(lam)
        eigvals[i, :len(lam)] = lam
        eigvecs[i, :, :vec.shape[1]] = vec

    return EigenPatchModel(
        lr_w=lr_w, lr_h=lr_h, hr_w=hr_w, hr_h=hr_h,
        patch_size=PATCH_SIZE, stride=STRIDE, hp_w=hp_w, hp_h=hp_h,
        sigma=sigma,
        positions_lr=positions_lr, positions_hr=positions_hr,
        means_lr=means_lr, means_hr=means_hr,
        deviations=deviations, eigvecs=eigvecs, eigvals=eigvals,
        kcounts=kcounts, hr_patches=hr_patches,
        provenance=provenance,
        metadata={"n_train": m, "variance_keep": variance_keep},
    )


def reconstruct(lr: np.ndarray, model: EigenPatchModel) -> np.ndarray:
    """Hallucinate the HR image for one LR input using the trained model."""
    lr = np.asarray(lr, dtype=np.float64)
    if lr.shape != (model.lr_h, model.lr_w):
        raise InputError(
            f"LR dims {lr.shape[::-1]} do not match model plane "
            f"({model.lr_w}, {model.lr_h})")
    ps = model.patch_size
    accum = np.zeros((model.hr_h, model.hr_w))
    count = np.zeros((model.hr_h, model.hr_w))

    for i in range(model.n_positions):
        x, y = model.positions_lr[i]
        patch = lr[y:y + ps, x:x + ps].ravel()
        k = int(model.kcounts[i])
        if k > 0:
            v = model.eigvecs[i, :, :k]
            scaled = v / np.sqrt(model.eigvals[i, :k])
            basis = model.deviations[i] @ scaled          # E, (d, K)
            weights = basis.T @ (patch - model.means_lr[i])
            coeff = scaled @ weights                      # (M,)
            hr_patch = model.means_hr[i] + coeff @ (
                model.hr_patches[i] - model.means_hr[i])
        else:
            hr_patch = model.means_hr[i]
        hx, hy = model.positions_hr[i]
        accum[hy:hy + model.hp_h, hx:hx + model.hp_w] += hr_patch.reshape(
            model.hp_h, model.hp_w)
        count[hy:hy + model.hp_h, hx:hx + model.hp_w] += 1.0

    return raster.clamp01(accum / count)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_ARRAY_FIELDS = ["positions_lr", "positions_hr", "means_lr", "means_hr",
                 "deviations", "eigvecs", "eigvals", "kcounts", "hr_patches"]


def save_model(path, model: EigenPatchModel) -> None:
    meta = {
        "version": _FORMAT_VERSION,
        "lr_w": model.lr_w, "lr_h": model.lr_h,
        "hr_w": model.hr_w, "hr_h": model.hr_h,
        "patch_size": model.patch_size, "stride": model.stride,
        "hp_w": model.hp_w, "hp_h": model.hp_h,
        "sigma": model.sigma,
        "provenance": model.provenance,
        "extra": model.metadata,
    }
    arrays = {name: getattr(model, name) for name in _ARRAY_FIELDS}
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **arrays)


def load_model(path) -> EigenPatchModel:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("version") != _FORMAT_VERSION:
            raise InputError(
                f"{path}: unsupported model version {meta.get('version')!r}")
        arrays = {name: data[name] for name in _ARRAY_FIELDS}
    return EigenPatchModel(
        lr_w=meta["lr_w"], lr_h=meta["lr_h"], hr_w=meta["hr_w"], hr_h=meta["hr_h"],
        patch_size=meta["patch_size"], stride=meta["stride"],
        hp_w=meta["hp_w"], hp_h=meta["hp_h"], sigma=meta["sigma"],
        provenance=meta.get("provenance", ""),
        metadata=meta.get("extra", {}), **arrays,
    )
