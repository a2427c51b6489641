"""Position-patch PCA hallucination: per-position eigen-decomposition of
co-located LR training patches, with projection weights transferred to the
co-located HR patches.

For every grid position the M training LR patches X (centered on their mean
mu) are eigendecomposed through the M x M Gram matrix X'X = V L V' (the dual
form: M is small, the patch dimension may not be). Training stores, per
position, the three arrays reconstruction applies: the orthonormal
eigen-patches E = X V L^{-1/2} (d x K), the coefficient map V L^{-1/2}
(M x K), both zero past the K kept components, and the deviations H - eta
of the co-located HR training patches from their mean eta (M x hd).
Reconstruction projects the input patch onto E, w = E'(x - mu), converts
the projection to per-sample coefficients c = V L^{-1/2} w (the zero
padding adds exact zeros) and synthesizes the HR patch eta + c'(H - eta);
overlapping patches are blended by uniform per-pixel averaging.
"""

import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from . import raster
from .errors import InputError


PATCH_SIZE = 4
STRIDE = 2
VARIANCE_KEEP = 0.98
EIGENVALUE_FLOOR = 1e-10

_FORMAT_VERSION = "epm-2"


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


@dataclass
class EigenPatchModel:
    lr_w: int
    lr_h: int
    hr_w: int
    hr_h: int
    hp_w: int
    hp_h: int
    sigma: float
    positions_lr: np.ndarray   # (P, 2) int, (x, y)
    positions_hr: np.ndarray   # (P, 2) int
    means_lr: np.ndarray       # (P, d) mu
    means_hr: np.ndarray       # (P, hd) eta
    basis: np.ndarray          # (P, d, Kmax) E = X V L^{-1/2}
    coeffs: np.ndarray         # (P, M, Kmax) V L^{-1/2}
    kcounts: np.ndarray        # (P,) K; basis and coeffs are zero past it
    hr_deviations: np.ndarray  # (P, M, hd) H - eta
    provenance: str = ""

    @property
    def n_positions(self) -> int:
        return self.positions_lr.shape[0]

    def eigen_patches(self, i: int) -> np.ndarray:
        """Orthonormal eigen-patch basis E at position i, (d, K)."""
        return self.basis[i, :, :self.kcounts[i]]


def train(hr_images, lr_w: int, lr_h: int, sigma: float,
          provenance: str = "") -> EigenPatchModel:
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

    lr_images = [raster.degrade(im, lr_w, lr_h, sigma) for im in hr_images]
    positions_lr = np.array(patch_positions(lr_w, lr_h), dtype=np.int64)
    hp_w, hxs = hr_offsets(lr_w, hr_w)
    hp_h, hys = hr_offsets(lr_h, hr_h)
    positions_hr = np.array([(x, y) for y in hys for x in hxs], dtype=np.int64)

    m = len(hr_images)
    p = len(positions_lr)
    d = PATCH_SIZE * PATCH_SIZE
    hd = hp_w * hp_h

    means_lr = np.empty((p, d))
    means_hr = np.empty((p, hd))
    hr_deviations = np.empty((p, m, hd))
    components = []

    for i in range(p):
        x, y = positions_lr[i]
        patches = np.stack([im[y:y + PATCH_SIZE, x:x + PATCH_SIZE].ravel()
                            for im in lr_images])  # (M, d)
        mean_lr = patches.mean(axis=0)
        xc = (patches - mean_lr).T  # (d, M)
        means_lr[i] = mean_lr

        hx, hy = positions_hr[i]
        hpat = np.stack([im[hy:hy + hp_h, hx:hx + hp_w].ravel()
                         for im in hr_images])  # (M, hd)
        means_hr[i] = hpat.mean(axis=0)
        hr_deviations[i] = hpat - means_hr[i]

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
    kmax = max(1, max(s.shape[1] for _, s in components))
    basis = np.zeros((p, d, kmax))
    coeffs = np.zeros((p, m, kmax))
    kcounts = np.zeros(p, dtype=np.int64)
    for i, (e, scaled) in enumerate(components):
        k = kcounts[i] = scaled.shape[1]
        basis[i, :, :k] = e
        coeffs[i, :, :k] = scaled

    return EigenPatchModel(
        lr_w=lr_w, lr_h=lr_h, hr_w=hr_w, hr_h=hr_h, hp_w=hp_w, hp_h=hp_h,
        sigma=sigma, positions_lr=positions_lr, positions_hr=positions_hr,
        means_lr=means_lr, means_hr=means_hr, basis=basis, coeffs=coeffs,
        kcounts=kcounts, hr_deviations=hr_deviations, provenance=provenance)


def reconstruct(lr: np.ndarray, model: EigenPatchModel) -> np.ndarray:
    """Hallucinate the HR image for one LR input using the trained model."""
    lr = np.asarray(lr, dtype=np.float64)
    if lr.shape != (model.lr_h, model.lr_w):
        raise InputError(
            f"LR dims {lr.shape[::-1]} do not match model plane "
            f"({model.lr_w}, {model.lr_h})")
    accum = np.zeros((model.hr_h, model.hr_w))
    count = np.zeros((model.hr_h, model.hr_w))

    for i in range(model.n_positions):
        x, y = model.positions_lr[i]
        centered = lr[y:y + PATCH_SIZE, x:x + PATCH_SIZE].ravel() - model.means_lr[i]
        coeff = model.coeffs[i] @ (centered @ model.basis[i])  # (M,)
        hr_patch = model.means_hr[i] + coeff @ model.hr_deviations[i]
        hx, hy = model.positions_hr[i]
        accum[hy:hy + model.hp_h, hx:hx + model.hp_w] += hr_patch.reshape(
            model.hp_h, model.hp_w)
        count[hy:hy + model.hp_h, hx:hx + model.hp_w] += 1.0

    return raster.clamp01(accum / count)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_ARRAY_FIELDS = ["positions_lr", "positions_hr", "means_lr", "means_hr",
                 "basis", "coeffs", "kcounts", "hr_deviations"]
_META_FIELDS = ["lr_w", "lr_h", "hr_w", "hr_h", "hp_w", "hp_h", "sigma",
                "provenance"]


def save_model(path, model: EigenPatchModel) -> None:
    """Write the model through a temporary file in the same directory, so an
    interrupted write never leaves a partial model at `path`."""
    meta = json.dumps({"version": _FORMAT_VERSION,
                       **{name: getattr(model, name) for name in _META_FIELDS}})
    raster.save_npz(path, meta=np.frombuffer(meta.encode(), dtype=np.uint8),
                    **{name: getattr(model, name) for name in _ARRAY_FIELDS})


def load_model(path) -> EigenPatchModel:
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            if meta.get("version") != _FORMAT_VERSION:
                raise InputError(
                    f"{path}: unsupported model version {meta.get('version')!r}")
            fields = {name: meta[name] for name in _META_FIELDS}
            fields.update((name, data[name]) for name in _ARRAY_FIELDS)
    except InputError:
        raise
    except (OSError, EOFError, KeyError, ValueError, AttributeError,
            zipfile.BadZipFile) as exc:
        raise InputError(f"{path}: unreadable model ({exc!r})") from exc
    return EigenPatchModel(**fields)
