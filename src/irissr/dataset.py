"""Manifests, circle annotations, preprocessing, LR simulation and a synthetic corpus.

The preprocessing protocol is: rescale every image so the sclera radius hits a
common target, then cut a fixed square around the pupil center; records whose
square would leave the image are discarded (a modeled outcome, not an error).

The synthetic generator stands in for licensed iris databases: each seed is an
identity with its own angular-frequency signature painted into the iris
annulus, and a session-jitter parameter adds small rotation/contrast changes
without altering the identity.
"""

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import raster
from .errors import InputError


class DatasetError(InputError):
    pass


class ManifestError(DatasetError):
    pass


@dataclass(frozen=True)
class IrisAnnotation:
    """Pupil/iris/sclera circle parameters, concentric about the pupil center."""

    px: float
    py: float
    pupil_radius: float
    iris_radius: float
    sclera_radius: float

    def validate(self) -> None:
        if not (0 < self.pupil_radius < self.iris_radius <= self.sclera_radius):
            raise DatasetError(
                "annotation radii must satisfy 0 < pupil < iris <= sclera, got "
                f"({self.pupil_radius}, {self.iris_radius}, {self.sclera_radius})"
            )

    def check_in_bounds(self, width: int, height: int) -> None:
        if not (0 <= self.px < width and 0 <= self.py < height):
            raise DatasetError(
                f"pupil center ({self.px}, {self.py}) outside image {width}x{height}"
            )

    def scaled(self, s: float) -> "IrisAnnotation":
        return IrisAnnotation(
            px=self.px * s,
            py=self.py * s,
            pupil_radius=self.pupil_radius * s,
            iris_radius=self.iris_radius * s,
            sclera_radius=self.sclera_radius * s,
        )

    def translated(self, dx: float, dy: float) -> "IrisAnnotation":
        return replace(self, px=self.px + dx, py=self.py + dy)


@dataclass(frozen=True)
class ManifestRecord:
    image_path: str
    subject_id: str
    session: int
    annotation: IrisAnnotation


MANIFEST_HEADER = ["path", "subject", "session", "px", "py", "pr", "ir", "sr"]


def load_manifest(path) -> list[ManifestRecord]:
    """Parse an annotation manifest CSV, validating every record."""
    records: list[ManifestRecord] = []
    seen_paths: set[str] = set()
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError(f"{path}: empty manifest (missing header)")
        if [h.strip() for h in header] != MANIFEST_HEADER:
            raise ManifestError(
                f"{path}: bad header {header!r}, expected {MANIFEST_HEADER!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(MANIFEST_HEADER):
                raise ManifestError(f"{path}: line {lineno}: expected "
                                    f"{len(MANIFEST_HEADER)} fields, got {len(row)}")
            try:
                ann = IrisAnnotation(
                    px=float(row[3]), py=float(row[4]),
                    pupil_radius=float(row[5]),
                    iris_radius=float(row[6]),
                    sclera_radius=float(row[7]),
                )
                session = int(row[2])
            except ValueError as exc:
                raise ManifestError(f"{path}: line {lineno}: {exc}") from exc
            try:
                ann.validate()
            except DatasetError as exc:
                raise ManifestError(
                    f"{path}: line {lineno} ({row[0]}): {exc}") from exc
            if row[0] in seen_paths:
                raise ManifestError(f"{path}: line {lineno}: duplicate path {row[0]!r}")
            seen_paths.add(row[0])
            records.append(ManifestRecord(row[0], row[1], session, ann))
    return records


def save_manifest(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for rec in records:
            a = rec.annotation
            writer.writerow([
                rec.image_path, rec.subject_id, rec.session,
                repr(a.px), repr(a.py),
                repr(a.pupil_radius), repr(a.iris_radius), repr(a.sclera_radius),
            ])


def split_by_subject(records, n_train_subjects: int):
    """Split records into (train, target) by sorted subject id order."""
    subjects = sorted({r.subject_id for r in records})
    train_ids = set(subjects[:n_train_subjects])
    train = [r for r in records if r.subject_id in train_ids]
    target = [r for r in records if r.subject_id not in train_ids]
    return train, target


# ---------------------------------------------------------------------------
# preprocessing protocol
# ---------------------------------------------------------------------------

def normalize_sclera(img: np.ndarray, ann: IrisAnnotation, target_radius: float):
    """Rescale image and annotation so the sclera radius equals target_radius."""
    ann.validate()
    s = target_radius / ann.sclera_radius
    h, w = img.shape
    out_w = max(1, int(round(w * s)))
    out_h = max(1, int(round(h * s)))
    resized = raster.resize_bicubic(img, out_w, out_h)
    return resized, ann.scaled(s)


def crop_square(img: np.ndarray, ann: IrisAnnotation, side: int):
    """Cut a side x side square centered on the rounded pupil center.

    Returns (cropped_image, translated_annotation), or None when the square
    does not fit inside the image (the discard outcome).
    """
    if side < 1:
        raise DatasetError(f"crop side must be >= 1, got {side}")
    h, w = img.shape
    cx = int(round(ann.px))
    cy = int(round(ann.py))
    left = cx - side // 2
    top = cy - side // 2
    if left < 0 or top < 0 or left + side > w or top + side > h:
        return None
    cropped = img[top:top + side, left:left + side].copy()
    return cropped, ann.translated(-left, -top)


def preprocess(img: np.ndarray, ann: IrisAnnotation, target_radius: float, side: int):
    """normalize_sclera followed by crop_square; None means discard."""
    resized, scaled = normalize_sclera(img, ann, target_radius)
    return crop_square(resized, scaled, side)


# ---------------------------------------------------------------------------
# LR simulation
# ---------------------------------------------------------------------------

def simulate_lr(img: np.ndarray, lr_w: int, lr_h: int, sigma: float):
    """Degrade to LR and bicubic-upscale back: (lr, baseline) pair.

    The baseline is the classic-interpolation reference reconstruction that
    every SR method is scored against.
    """
    h, w = img.shape
    lr = raster.degrade(img, lr_w, lr_h, sigma)
    baseline = raster.upsample(lr, w, h)
    return lr, baseline


# ---------------------------------------------------------------------------
# synthetic iris corpus
# ---------------------------------------------------------------------------

SCLERA_FRACTION = 0.48  # drawn sclera radius as a fraction of image size

_PUPIL_VALUE = 0.05
_SCLERA_VALUE = 0.88
_OUTER_VALUE = 0.70
_EDGE_WIDTH = 1.5  # px, smooth transition at circle boundaries


def _smoothstep(x: np.ndarray, edge: float, width: float) -> np.ndarray:
    t = np.clip((x - (edge - width / 2.0)) / width, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def synth_iris(seed: int, size: int, jitter: int = 0):
    """Render a synthetic eye image and its exact annotation.

    Identity (texture signature and radii) depends only on the seed; a nonzero
    jitter adds a small rotation plus a contrast/brightness perturbation, so
    (seed, jitter) pairs act like repeated sessions of one eye.
    """
    if size < 64:
        raise DatasetError(f"size must be >= 64, got {size}")
    rng = np.random.default_rng(seed)

    pupil_r = size * rng.uniform(0.12, 0.16)
    iris_r = size * rng.uniform(0.34, 0.40)
    sclera_r = size * SCLERA_FRACTION
    cx = cy = (size - 1) / 2.0

    # per-identity frequency signature: angular harmonics with radial tilt,
    # plus purely radial bands. Harmonic orders sit where the log-Gabor
    # comparator listens and where aggressive downsampling starts to hurt.
    n_harm = 12
    harm_k = rng.integers(6, 32, size=n_harm)
    harm_a = rng.uniform(0.4, 1.0, size=n_harm)
    harm_tilt = rng.uniform(-2.0, 2.0, size=n_harm)
    harm_phase = rng.uniform(0.0, 2.0 * math.pi, size=n_harm)
    n_band = 4
    band_f = rng.uniform(1.0, 4.0, size=n_band)
    band_a = rng.uniform(0.3, 0.8, size=n_band)
    band_phase = rng.uniform(0.0, 2.0 * math.pi, size=n_band)

    # session rotation stays within half the comparator's shift search range,
    # so two sessions of one eye are always alignable at full resolution
    rot = 0.0
    gain = 1.0
    offset = 0.0
    if jitter != 0:
        jrng = np.random.default_rng([int(seed), int(jitter), 0x5E55])
        rot = jrng.uniform(-4.0, 4.0) * math.pi / 180.0
        gain = 1.0 + jrng.uniform(-0.05, 0.05)
        offset = jrng.uniform(-0.02, 0.02)

    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    dx = xs - cx
    dy = ys - cy
    r = np.hypot(dx, dy)
    theta = np.arctan2(dy, dx) - rot
    rn = (r - pupil_r) / (iris_r - pupil_r)

    tex = np.zeros_like(r)
    for m in range(n_harm):
        tex += harm_a[m] * np.cos(
            harm_k[m] * theta + 2.0 * math.pi * harm_tilt[m] * rn + harm_phase[m]
        )
    for j in range(n_band):
        tex += band_a[j] * np.cos(2.0 * math.pi * band_f[j] * rn + band_phase[j])
    tex = 0.5 + 0.36 * tex / (harm_a.sum() + band_a.sum())

    w_pupil = _smoothstep(r, pupil_r, _EDGE_WIDTH)
    w_iris = _smoothstep(r, iris_r, _EDGE_WIDTH)
    w_sclera = _smoothstep(r, sclera_r, _EDGE_WIDTH)
    img = _PUPIL_VALUE + (tex - _PUPIL_VALUE) * w_pupil
    img = img + (_SCLERA_VALUE - img) * w_iris
    img = img + (_OUTER_VALUE - img) * w_sclera

    if jitter != 0:
        img = 0.5 + gain * (img - 0.5) + offset
    img = raster.clamp01(img)

    ann = IrisAnnotation(px=cx, py=cy, pupil_radius=pupil_r,
                         iris_radius=iris_r, sclera_radius=sclera_r)
    return img, ann
