"""Super-resolution driver: reconstruct an LR image at the HR size by method.

Methods `bilinear` and `bicubic` are single direct resizes (the classic
baselines). Method `eigenpatch` is a direct LR->HR map through a trained
model. Method `backend:<name>` shells out to an opaque x2 backend through a
file-exchange protocol (PGM in, PGM out; see BACKEND.md), invoked
ceil(log2(n)) times for the larger of the two axis factors n = hr_w / lr_w and
hr_h / lr_h, so the chain reaches the target on both axes. One bicubic
exact-size correction follows when the chained dims do not land on the
target; it only ever shrinks.
"""

import math
import os
import shlex
import subprocess
import tempfile
import time

import numpy as np

from . import eigenpatch, raster
from .errors import BackendError, InputError

EXCHANGE_ENV = "IRIS_SR_TMP"
# seconds one backend call may run when its entry sets no `timeout`
BACKEND_TIMEOUT_S = 600.0


def apply_backend(lr: np.ndarray, backend: dict) -> np.ndarray:
    """One x2 pass through the external backend via the file-exchange protocol.

    `backend` is the backend's config entry: `command`, `exchange_dir` and
    an optional `timeout` in seconds, `BACKEND_TIMEOUT_S` when it has none,
    so no call can hang the stage. Each invocation gets a fresh
    subdirectory of the exchange dir, so concurrent calls cannot collide;
    the files are left in place for debugging.
    """
    h, w = lr.shape
    limit = backend.get("timeout") or BACKEND_TIMEOUT_S
    os.makedirs(backend["exchange_dir"], exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="x2-", dir=backend["exchange_dir"])
    in_path = os.path.join(workdir, "in.pgm")
    out_path = os.path.join(workdir, "out.pgm")
    raster.write_pgm(in_path, lr)

    argv = [tok.replace("{in}", in_path).replace("{out}", out_path)
            for tok in shlex.split(backend["command"])]
    command = " ".join(argv)
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        raise BackendError(
            f"backend did not finish within {limit:g} s: {command}") from None
    if proc.returncode != 0:
        tail = proc.stderr[-2000:]
        raise BackendError(f"backend exited with status {proc.returncode}: {command}"
                           + (f"\n{tail}" if tail else ""))
    if not os.path.exists(out_path):
        raise BackendError(f"backend produced no output file: {out_path}")
    try:
        out = raster.read_pgm(out_path)
    except InputError as exc:
        raise BackendError(f"backend wrote an unreadable output file: {exc}") from None
    if out.shape != (2 * h, 2 * w):
        raise BackendError(f"backend output dims {(out.shape[1], out.shape[0])} do not "
                           f"match the required x2 dims {(2 * w, 2 * h)}")
    return out


def super_resolve(lr: np.ndarray, hr_w: int, hr_h: int, method: str,
                  model: eigenpatch.EigenPatchModel | None = None,
                  backend: dict | None = None, call_s: list | None = None):
    """Reconstruct lr to exactly (hr_w, hr_h) by `method`. Returns (image, passes).

    `model` is the trained model `eigenpatch` needs and `backend` the config
    entry a `backend:<name>` method calls. `passes` counts upscaler
    applications: 1 for the direct methods, and ceil(log2(n)) backend
    invocations for a backend, n the larger of the two axis factors. Each
    backend call's wall time in seconds is appended to `call_s` when given.
    """
    lr = raster.as_image(lr)
    h, w = lr.shape
    if hr_w < w or hr_h < h:
        raise InputError(f"target {hr_w}x{hr_h} smaller than input {w}x{h}")

    if method == "bilinear":
        return raster.resize_bilinear(lr, hr_w, hr_h), 1
    if method == "bicubic":
        return raster.resize_bicubic(lr, hr_w, hr_h), 1
    if method == "eigenpatch":
        if model is None:
            raise InputError("eigenpatch upscaler requires a model")
        if model.mean_hr.shape != (hr_h, hr_w):
            raise InputError(f"target dims {(hr_w, hr_h)} do not match model HR "
                             f"plane {model.mean_hr.shape[::-1]}")
        return eigenpatch.reconstruct(lr, model), 1
    if not method.startswith("backend:"):
        raise InputError(f"unknown SR method {method!r}")
    if backend is None:
        raise InputError(f"method {method!r} requires its backend entry")

    # x2 passes until both axes reach the target, then exact-size correction
    passes = max(planned_passes(w, hr_w), planned_passes(h, hr_h))
    img = lr
    for _ in range(passes):
        t = time.perf_counter()
        out = apply_backend(img, backend)
        if call_s is not None:
            call_s.append(time.perf_counter() - t)
        img = raster.clamp01(out)
    if img.shape != (hr_h, hr_w):
        img = raster.resize_bicubic(img, hr_w, hr_h)
    return img, passes


def planned_passes(lr_w: int, hr_w: int) -> int:
    """Backend invocation count for one axis, nominal factor hr_w / lr_w."""
    n = hr_w / lr_w
    return max(0, math.ceil(math.log2(n))) if n > 1 else 0
