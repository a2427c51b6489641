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
Training cuts all positions' patches with one cutter (`_patches`, shared
with reconstruction) and decomposes their Gram matrices in one batched call.
Reconstruction projects every input patch onto its E, w = E'(x - mu), and
converts w to per-sample coefficients c = V L^{-1/2} w (the zero padding
adds exact zeros). Averaging the overlapping HR patches eta + c'(H - eta)
per pixel is one separable product, eta + sum_m (R_h' C_m R_w) o (H_m - eta)
/ count, with C_m sample m's coefficients on the position grid, R_h and R_w
per-axis 0/1 matrices (one row per grid offset, covering its HR span) and
count the outer product of their column sums.

The command line keeps no model: each eigen-patch `sr` command trains one in
memory. `save_model` and `load_model` let a library caller keep the six
arrays in one tagged `.npz` (`raster.save_npz`, `raster.load_npz`). The
caller's tag is the model's whole lineage: a file under another tag reads
back as no model.
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


def _patches(planes: np.ndarray) -> np.ndarray:
    """The PATCH_SIZE-square patches of (..., h, w) planes in
    `patch_positions` order, (..., P, PATCH_SIZE**2)."""
    ys, xs = grid_positions(planes.shape[-2]), grid_positions(planes.shape[-1])
    windows = np.lib.stride_tricks.sliding_window_view(
        planes, (PATCH_SIZE, PATCH_SIZE), axis=(-2, -1))
    cut = windows[..., np.array(ys)[:, None], xs, :, :]
    return cut.reshape(*planes.shape[:-2], len(ys) * len(xs), PATCH_SIZE * PATCH_SIZE)


def _cover(lr_extent: int, hr_extent: int) -> np.ndarray:
    """One 0/1 row per grid offset along one axis, marking the HR pixels its
    patch covers, (len(grid_positions(lr_extent)), hr_extent)."""
    side, offsets = hr_offsets(lr_extent, hr_extent)
    inside = np.arange(hr_extent) - np.array(offsets)[:, None]
    return ((inside >= 0) & (inside < side)).astype(np.float64)


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
    m = len(hr_images)

    # (P, M, d): each position's centered training patches X', one per row
    x = _patches(lr - mean_lr).swapaxes(0, 1)
    lam, vec = np.linalg.eigh(x @ x.swapaxes(1, 2))
    # eigh sorts ascending; the components go largest first
    lam = np.clip(lam[:, ::-1], 0.0, None)
    vec = vec[:, :, ::-1]
    # K: the VARIANCE_KEEP cut, at most M - 1, and no eigenvalue at or below
    # EIGENVALUE_FLOOR (which leaves K = 0 where the variance is 0)
    total = lam.sum(axis=1, keepdims=True)
    kcounts = np.minimum.reduce([
        (np.cumsum(lam, axis=1) < VARIANCE_KEEP * total).sum(axis=1) + 1,
        np.full(len(lam), m - 1),
        (lam > EIGENVALUE_FLOOR).sum(axis=1)])
    # keep the arrays well-shaped even for all-degenerate models
    kmax = max(1, kcounts.max())
    kept = (np.arange(kmax) < kcounts[:, None])[:, None, :]  # (P, 1, Kmax)
    coeffs = np.where(kept, vec[:, :, :kmax], 0.0) / np.sqrt(
        np.where(kept, lam[:, None, :kmax], 1.0))
    basis = x.swapaxes(1, 2) @ coeffs

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
    # per position, w = E'(x - mu), then c = V L^{-1/2} w: (P, M)
    w = np.einsum("pd,pdk->pk", _patches(lr - model.mean_lr), model.basis)
    c = np.einsum("pmk,pk->pm", model.coeffs, w)
    r_h, r_w = _cover(lr_h, hr_h), _cover(lr_w, hr_w)
    spread = r_h.T @ c.T.reshape(-1, len(r_h), len(r_w)) @ r_w
    offset = np.einsum("mij,mij->ij", spread, model.deviations)
    count = np.outer(r_h.sum(axis=0), r_w.sum(axis=0))
    return raster.clamp01(model.mean_hr + offset / count)


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
