"""Iterative image re-projection: pull an HR estimate toward LR data fidelity.

The estimate is updated by
    y_{T+1} = y_T - tau * U( B( degrade(y_T) - x ) )
where degrade is the blur+downsample pair that produced the observation x, the
inner blur B smooths the LR-plane residual (degradation blur rescaled to LR
pixel units, each axis by its own ratio), and U is one bicubic upscale to the
HR size. This is Irani and Peleg's iterative back-projection. Iteration stops
when the mean absolute change drops below `tol` or `max_iter` is hit; values
are clamped to [0,1] once, after termination, since clamping inside the loop
would alter the recurrence.

Every operator is linear and separable per axis, so each is a pair of small
matrices from raster.axis_operator: D (LR x HR), B (LR x LR) and U (HR x LR)
per axis, built once per call. The residual r_T = degrade(y_T) - x then
obeys its own LR recurrence,
    s_T = Bh r_T Bw',   r_{T+1} = r_T - tau * (Dh Uh) s_T (Dw Uw)',
and the estimate is y_T = y_0 - tau * Uh (s_0 + ... + s_{T-1}) Uw'. The loop
adds each step s_T into an LR-sized sum; its only HR-sized job is the stop
test, the mean absolute update tau * mean|Uh s_T Uw'|. The HR estimate is
formed once, after the loop, with one product. The first residual comes from
raster.degrade_linear, so a fixed point gives a zero step exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import raster
from .errors import InputError


DEFAULT_TAU = 0.02
DEFAULT_TOL = 1e-5
DEFAULT_MAX_ITER = 1000


class ReprojectError(InputError):
    pass


@dataclass(frozen=True)
class ReprojectConfig:
    lr_w: int
    lr_h: int
    sigma: float
    tau: float = DEFAULT_TAU
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def validate(self) -> None:
        if not 0 <= self.tau < math.inf:
            raise ReprojectError(f"tau must be finite and >= 0, got {self.tau}")
        if not 0 < self.tol < math.inf:
            raise ReprojectError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ReprojectError(f"max_iter must be >= 1, got {self.max_iter}")


def reproject(y0: np.ndarray, x: np.ndarray, cfg: ReprojectConfig,
              trace: list | None = None):
    """Run the re-projection recurrence. Returns (image, iterations, converged).

    `trace`, when given, collects the per-iteration mean absolute update so
    runs can log their convergence path.
    """
    cfg.validate()
    y0 = np.asarray(y0, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    hr_h, hr_w = y0.shape
    if x.shape != (cfg.lr_h, cfg.lr_w):
        raise ReprojectError(
            f"observation dims {x.shape[::-1]} do not match config "
            f"({cfg.lr_w}, {cfg.lr_h})")
    if hr_w < cfg.lr_w or hr_h < cfg.lr_h:
        raise ReprojectError("HR estimate smaller than the LR observation")

    def axis_matrices(hr_n, lr_n):
        # The degradation blur `sigma` is in HR pixels and one HR pixel is
        # lr_n/hr_n LR pixels along this axis, so the inner blur is scaled by
        # that ratio. The HR value itself would smear the LR residual to its
        # mean and stall the correction.
        up = raster.axis_operator(lr_n, hr_n)
        blur = raster.axis_operator(lr_n, lr_n, cfg.sigma * (lr_n / hr_n))
        return blur, up, raster.axis_operator(hr_n, lr_n, cfg.sigma) @ up

    blur_h, up_h, down_up_h = axis_matrices(hr_h, cfg.lr_h)
    blur_w, up_w, down_up_w = axis_matrices(hr_w, cfg.lr_w)

    residual = raster.degrade_linear(y0, cfg.lr_w, cfg.lr_h, cfg.sigma) - x
    total = np.zeros_like(residual)
    iterations = 0
    converged = False
    for _ in range(cfg.max_iter):
        iterations += 1
        smoothed = blur_h @ residual @ blur_w.T
        total += smoothed
        # U (s U') stays on one OpenBLAS thread at 231 -> 15, where (U s) U'
        # runs threaded and several times slower
        step = up_h @ (smoothed @ up_w.T)
        delta = cfg.tau * float(np.mean(np.abs(step, out=step)))
        if trace is not None:
            trace.append(delta)
        if delta < cfg.tol:
            converged = True
            break
        residual = residual - cfg.tau * (down_up_h @ smoothed @ down_up_w.T)
    y = y0 - cfg.tau * (up_h @ (total @ up_w.T))
    return raster.clamp01(y), iterations, converged
