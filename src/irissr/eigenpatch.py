"""Position-patch PCA hallucination: per-position eigen-decomposition of
co-located LR training patches, with projection weights transferred to the
co-located HR patches.

For every grid position the M training LR patches X (centered on their mean
mu) are eigendecomposed through the M x M Gram matrix X'X = V L V' (the dual
form: M is small, the patch dimension may not be). Training stores the HR
training images once, as their mean image eta and their deviations H - eta
(M x hr_h x hr_w), beside the mean LR image mu and, per position, the two
arrays reconstruction applies there: the orthonormal eigen-patches
E = X V L^{-1/2} (d x K) and the coefficient map V L^{-1/2} (M x K), both
zero past the K kept components. The plane sizes are the shapes of mu and
eta, and patch positions follow from them (`patch_positions`, `hr_offsets`),
so the model stores neither.
Reconstruction projects the input patch onto E, w = E'(x - mu), converts
the projection to per-sample coefficients c = V L^{-1/2} w (the zero
padding adds exact zeros) and synthesizes the HR patch eta + c'(H - eta)
from the co-located slices of eta and H - eta; overlapping patches are
blended by uniform per-pixel averaging.

`save_model` and `load_model` keep the six arrays in one tagged `.npz`
(`raster.save_npz`, `raster.load_npz`). The caller's tag is the model's
whole lineage: a file under another tag reads back as no model.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import raster
from .errors import InputError


PATCH_SIZE = 4
STRIDE = 2
VARIANCE_KEEP = 0.98
EIGENVALUE_FLOOR = 1e-10


def grid_positions(extent: int) -> list[int]:
    """Top-left offsets covering [0, extent): STRIDE steps, last one clamped."""
    if PATCH_SIZE > extent:
        raise InputError(f"patch size {PATCH_SIZE} exceeds plane extent {extent}")
    xs = list(range(0, extent - PATCH_SIZE + 1, STRIDE))
    if xs[-1] != extent - PATCH_SIZE:
        xs.append(extent - PATCH_SIZE)
    return xs


def patch_positions(width: int, height: int) -> list:
    """Top-left (x, y) of every patch covering a width x height plane, row-major."""
    xs = grid_positions(width)
    return [(x, y) for y in grid_positions(height) for x in xs]


def hr_offsets(lr_extent: int, hr_extent: int) -> tuple[int, list[int]]:
    """The HR patch side along one axis and the HR offsets co-located with
    `grid_positions(lr_extent)`, the last one clamped to the plane."""
    f = hr_extent / lr_extent
    side = int(math.ceil(PATCH_SIZE * f))
    return side, [min(int(round(x * f)), hr_extent - side)
                  for x in grid_positions(lr_extent)]


def _patch_slices(lr_w: int, lr_h: int, hr_w: int, hr_h: int) -> list:
    """The (LR, HR) slices of every patch position in `patch_positions`
    order: the PATCH_SIZE square at (x, y) and its co-located HR patch."""
    hp_w, hxs = hr_offsets(lr_w, hr_w)
    hp_h, hys = hr_offsets(lr_h, hr_h)
    hx_at = dict(zip(grid_positions(lr_w), hxs))
    hy_at = dict(zip(grid_positions(lr_h), hys))
    return [(np.s_[y:y + PATCH_SIZE, x:x + PATCH_SIZE],
             np.s_[hy_at[y]:hy_at[y] + hp_h, hx_at[x]:hx_at[x] + hp_w])
            for x, y in patch_positions(lr_w, lr_h)]


@dataclass
class EigenPatchModel:
    mean_lr: np.ndarray     # (lr_h, lr_w) mu
    mean_hr: np.ndarray     # (hr_h, hr_w) eta
    deviations: np.ndarray  # (M, hr_h, hr_w) H - eta
    basis: np.ndarray       # (P, d, Kmax) E = X V L^{-1/2}
    coeffs: np.ndarray      # (P, M, Kmax) V L^{-1/2}
    kcounts: np.ndarray     # (P,) K; basis and coeffs are zero past it

    @property
    def n_positions(self) -> int:
        return self.kcounts.shape[0]

    def eigen_patches(self, i: int) -> np.ndarray:
        """Orthonormal eigen-patch basis E at position i, (d, K)."""
        return self.basis[i, :, :self.kcounts[i]]


def train(hr_images, lr_w: int, lr_h: int, sigma: float) -> EigenPatchModel:
    """Build the per-position PCA model from aligned same-size HR images.

    LR counterparts are produced by the same degradation used at test time.
    Patches are PATCH_SIZE x PATCH_SIZE LR pixels, STRIDE apart.
    VARIANCE_KEEP truncates components at that cumulative-variance fraction
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

    lr = np.stack([raster.degrade(im, lr_w, lr_h, sigma) for im in hr_images])
    hr = np.stack(hr_images)
    mean_lr = lr.mean(axis=0)
    mean_hr = hr.mean(axis=0)
    lr_deviations = lr - mean_lr
    m = len(hr_images)

    components = []
    for x, y in patch_positions(lr_w, lr_h):
        patches = lr_deviations[:, y:y + PATCH_SIZE, x:x + PATCH_SIZE]
        xc = patches.reshape(m, -1).T  # (d, M)
        gram = xc.T @ xc
        lam, vec = np.linalg.eigh(gram)
        order = np.argsort(lam)[::-1]
        lam = np.clip(lam[order], 0.0, None)
        vec = vec[:, order]
        total = lam.sum()
        k = min(int(np.searchsorted(np.cumsum(lam), VARIANCE_KEEP * total)) + 1,
                m - 1) if total > 0 else 0
        while k > 0 and lam[k - 1] <= EIGENVALUE_FLOOR:
            k -= 1
        scaled = vec[:, :k] / np.sqrt(lam[:k])
        components.append((xc @ scaled, scaled))

    # keep the arrays well-shaped even for all-degenerate models
    p = len(components)
    kmax = max(1, max(s.shape[1] for _, s in components))
    basis = np.zeros((p, PATCH_SIZE * PATCH_SIZE, kmax))
    coeffs = np.zeros((p, m, kmax))
    kcounts = np.zeros(p, dtype=np.int64)
    for i, (e, scaled) in enumerate(components):
        k = kcounts[i] = scaled.shape[1]
        basis[i, :, :k] = e
        coeffs[i, :, :k] = scaled

    return EigenPatchModel(mean_lr=mean_lr, mean_hr=mean_hr, deviations=hr - mean_hr,
                           basis=basis, coeffs=coeffs, kcounts=kcounts)


def reconstruct(lr: np.ndarray, model: EigenPatchModel) -> np.ndarray:
    """Hallucinate the HR image for one LR input using the trained model."""
    lr = np.asarray(lr, dtype=np.float64)
    lr_h, lr_w = model.mean_lr.shape
    hr_h, hr_w = model.mean_hr.shape
    if lr.shape != (lr_h, lr_w):
        raise InputError(
            f"LR dims {lr.shape[::-1]} do not match model plane ({lr_w}, {lr_h})")
    centered = lr - model.mean_lr
    m = model.deviations.shape[0]
    accum = np.zeros((hr_h, hr_w))
    count = np.zeros((hr_h, hr_w))

    for i, (lr_slice, hr_slice) in enumerate(_patch_slices(lr_w, lr_h, hr_w, hr_h)):
        coeff = model.coeffs[i] @ (centered[lr_slice].ravel() @ model.basis[i])  # (M,)
        # a C-contiguous (M, hd) operand, so that BLAS sums as it does for
        # the per-position reference in tests/test_eigenpatch.py
        deviations = np.ascontiguousarray(model.deviations[(..., *hr_slice)])
        mean = model.mean_hr[hr_slice]
        offset = coeff @ deviations.reshape(m, -1)
        accum[hr_slice] += mean + offset.reshape(mean.shape)
        count[hr_slice] += 1.0

    return raster.clamp01(accum / count)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_ARRAY_FIELDS = ["mean_lr", "mean_hr", "deviations", "basis", "coeffs", "kcounts"]


def save_model(path, model: EigenPatchModel, tag: str) -> None:
    """Write the model under `tag` (`raster.save_npz`)."""
    raster.save_npz(path, tag,
                    **{name: getattr(model, name) for name in _ARRAY_FIELDS})


def load_model(path, tag: str) -> EigenPatchModel | None:
    """The model `save_model` wrote at `path` under `tag`, or None when there
    is none (`raster.load_npz`, which raises InputError for a damaged file)."""
    arrays = raster.load_npz(path, tag, _ARRAY_FIELDS)
    return None if arrays is None else EigenPatchModel(**arrays)
