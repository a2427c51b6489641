"""Super-resolution driver: chain a x2 upscaler log2(n) times, then fix the size.

Built-in kinds `bilinear` and `bicubic` are single direct resizes (the classic
baselines). Kind `eigenpatch` is a direct LR->HR map through a trained model.
Kind `external` shells out to an opaque x2 backend through a file-exchange
protocol (PGM in, PGM out; see BACKEND.md), invoked ceil(log2(n)) times for a
nominal factor n = hr_w / lr_w, followed by one bicubic exact-size correction
when the chained dims do not land on the target.
"""

import math
import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass

import numpy as np

from . import eigenpatch, raster

EXCHANGE_ENV = "IRIS_SR_TMP"

KINDS = ("bilinear", "bicubic", "eigenpatch", "external")


class SrError(ValueError):
    pass


class BackendError(RuntimeError):
    """Base class for external backend failures."""


class BackendProcessError(BackendError):
    def __init__(self, command, status, stderr_tail=""):
        self.status = status
        super().__init__(
            f"backend exited with status {status}: {command}"
            + (f"\n{stderr_tail}" if stderr_tail else ""))


class BackendOutputMissingError(BackendError):
    def __init__(self, path):
        super().__init__(f"backend produced no output file: {path}")


class BackendDimensionError(BackendError):
    def __init__(self, got, expected):
        super().__init__(
            f"backend output dims {got} do not match the required x2 dims {expected}")


@dataclass(frozen=True)
class UpscalerSpec:
    name: str
    kind: str
    backend_command: str | None = None
    exchange_dir: str | None = None

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise SrError(f"unknown upscaler kind {self.kind!r}")
        if self.kind == "external" and not (self.backend_command and self.exchange_dir):
            raise SrError("external upscaler requires backend_command and exchange_dir")


def apply_backend(lr: np.ndarray, up: UpscalerSpec) -> np.ndarray:
    """One x2 pass through the external backend via the file-exchange protocol.

    Each invocation gets a fresh subdirectory of the exchange dir, so
    concurrent calls cannot collide; the files are left in place for
    debugging.
    """
    if up.kind != "external":
        raise SrError(f"apply_backend needs an external upscaler, got {up.kind!r}")
    up.validate()
    h, w = lr.shape
    os.makedirs(up.exchange_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="x2-", dir=up.exchange_dir)
    in_path = os.path.join(workdir, "in.pgm")
    out_path = os.path.join(workdir, "out.pgm")
    raster.write_pgm(in_path, lr)

    argv = [tok.replace("{in}", in_path).replace("{out}", out_path)
            for tok in shlex.split(up.backend_command)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BackendProcessError(" ".join(argv), proc.returncode,
                                  proc.stderr[-2000:])
    if not os.path.exists(out_path):
        raise BackendOutputMissingError(out_path)
    out = raster.read_pgm(out_path)
    if out.shape != (2 * h, 2 * w):
        raise BackendDimensionError((out.shape[1], out.shape[0]), (2 * w, 2 * h))
    return out


def super_resolve(lr: np.ndarray, hr_w: int, hr_h: int, up: UpscalerSpec,
                  model: eigenpatch.EigenPatchModel | None = None):
    """Reconstruct lr to exactly (hr_w, hr_h). Returns (image, passes).

    `passes` counts upscaler applications: 1 for the direct kinds, and
    ceil(log2(hr_w / lr_w)) backend invocations for the external kind.
    """
    up.validate()
    lr = raster.as_image(lr)
    h, w = lr.shape
    if hr_w < w or hr_h < h:
        raise SrError(f"target {hr_w}x{hr_h} smaller than input {w}x{h}")

    if up.kind == "bilinear":
        return raster.resize_bilinear(lr, hr_w, hr_h), 1
    if up.kind == "bicubic":
        return raster.resize_bicubic(lr, hr_w, hr_h), 1
    if up.kind == "eigenpatch":
        if model is None:
            raise SrError("eigenpatch upscaler requires a model")
        out = eigenpatch.reconstruct(lr, model)
        if out.shape != (hr_h, hr_w):
            out = raster.resize_bicubic(out, hr_w, hr_h)
        return out, 1

    # external: repeated x2 passes, then exact-size correction
    passes = planned_passes(w, hr_w)
    img = lr
    for _ in range(passes):
        img = raster.clamp01(apply_backend(img, up))
    if img.shape != (hr_h, hr_w):
        img = raster.resize_bicubic(img, hr_w, hr_h)
    return img, passes


def planned_passes(lr_w: int, hr_w: int) -> int:
    """Backend invocation count for a nominal factor hr_w / lr_w."""
    n = hr_w / lr_w
    return max(0, math.ceil(math.log2(n))) if n > 1 else 0
