"""Iterative image re-projection: pull an HR estimate toward LR data fidelity.

The estimate is updated by
    y_{T+1} = y_T - tau * U( B( degrade(y_T) - x ) )
where degrade is the blur+downsample pair that produced the observation x, the
inner blur B smooths the LR-plane residual (degradation blur rescaled to LR
pixel units), and U is one bicubic upscale to the HR size. This is Irani and
Peleg's iterative back-projection. Iteration stops when the mean absolute
change drops below `tol` or `max_iter` is hit; values are clamped to [0,1]
once, after termination, since clamping inside the loop would alter the
recurrence.

Every operator is linear and separable per axis, so each is a pair of small
matrices from raster.axis_operator: D (LR x HR), B (LR x LR) and U (HR x LR)
per axis, built once per call. The residual r_T = degrade(y_T) - x then
obeys its own LR recurrence,
    s_T = Bh r_T Bw',   y_{T+1} = y_T - tau * Uh s_T Uw',
    r_{T+1} = r_T - tau * (Dh Uh) s_T (Dw Uw)',
so an iteration costs one HR-sized product for the step and otherwise works
on LR-sized arrays. The first residual comes from raster.degrade_linear, so a
fixed point gives a zero step exactly; y and the stop test stay in HR.
"""

from dataclasses import dataclass

import numpy as np

from . import raster


DEFAULT_TAU = 0.02
DEFAULT_TOL = 1e-5
DEFAULT_MAX_ITER = 1000


class ReprojectError(ValueError):
    pass


@dataclass(frozen=True)
class ReprojectConfig:
    lr_w: int
    lr_h: int
    sigma: float
    tau: float = DEFAULT_TAU
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    lr_sigma: float | None = None  # None: sigma rescaled to LR pixel units

    def validate(self) -> None:
        if self.tau < 0:
            raise ReprojectError(f"tau must be >= 0, got {self.tau}")
        if self.tol <= 0:
            raise ReprojectError(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ReprojectError(f"max_iter must be >= 1, got {self.max_iter}")

    def resolve_lr_sigma(self, hr_w: int) -> float:
        """Inner-blur strength on the LR plane.

        The degradation blur `sigma` is expressed in HR pixels; one HR pixel
        is lr_w/hr_w LR pixels, so the matching residual blur is scaled by
        that ratio. Using the HR value directly would smear the whole LR
        residual to its mean and stall the correction.
        """
        if self.lr_sigma is not None:
            return self.lr_sigma
        return self.sigma * (self.lr_w / hr_w)


def reproject(y0: np.ndarray, x: np.ndarray, cfg: ReprojectConfig,
              trace: list | None = None):
    """Run the re-projection recurrence. Returns (image, iterations, converged).

    `trace`, when given, collects the per-iteration mean absolute update so
    runs can log their convergence path.
    """
    cfg.validate()
    y = np.asarray(y0, dtype=np.float64).copy()
    x = np.asarray(x, dtype=np.float64)
    hr_h, hr_w = y.shape
    if x.shape != (cfg.lr_h, cfg.lr_w):
        raise ReprojectError(
            f"observation dims {x.shape[::-1]} do not match config "
            f"({cfg.lr_w}, {cfg.lr_h})")
    if hr_w < cfg.lr_w or hr_h < cfg.lr_h:
        raise ReprojectError("HR estimate smaller than the LR observation")

    lr_sigma = cfg.resolve_lr_sigma(hr_w)

    def axis_matrices(hr_n, lr_n):
        up = raster.axis_operator(lr_n, hr_n)
        blur = raster.axis_operator(lr_n, lr_n, lr_sigma)
        return blur, up, raster.axis_operator(hr_n, lr_n, cfg.sigma) @ up

    blur_h, up_h, down_up_h = axis_matrices(hr_h, cfg.lr_h)
    blur_w, up_w, down_up_w = axis_matrices(hr_w, cfg.lr_w)

    residual = raster.degrade_linear(y, cfg.lr_w, cfg.lr_h, cfg.sigma) - x
    iterations = 0
    converged = False
    for _ in range(cfg.max_iter):
        iterations += 1
        smoothed = blur_h @ residual @ blur_w.T
        # this order keeps OpenBLAS on one thread at 231 -> 15; (U s) U' ran
        # threaded there, slower in wall time at twice the CPU time
        step = up_h @ (smoothed @ up_w.T)
        y_next = y - cfg.tau * step
        delta = float(np.mean(np.abs(y_next - y)))
        if trace is not None:
            trace.append(delta)
        y = y_next
        if delta < cfg.tol:
            converged = True
            break
        residual = residual - cfg.tau * (down_up_h @ smoothed @ down_up_w.T)
    return raster.clamp01(y), iterations, converged
