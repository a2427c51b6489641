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
per axis, built once per call. The smoothed residual
s_T = Bh (degrade(y_T) - x) Bw' obeys its own LR recurrence
    s_{T+1} = s_T - tau * Gh s_T Gw',   G = B (D U)   (LR x LR),
so the loop carries that one state and makes two LR products per iteration.
It adds each s_T into an LR-sized sum, and the estimate
    y_T = y_0 - tau * Uh (s_0 + ... + s_{T-1}) Uw'
is formed once, after the loop. s_0 comes from raster.degrade_linear, so a
fixed point gives a zero step exactly.

The stop test, delta_T = tau * mean|H_T| with H_T = Uh s_T Uw' (N = HR
pixels), is the only HR-sized job, and most iterations certify it is not
met without forming H_T. Any sign pattern S with |S| <= 1 gives
    sum|H| >= |<H, S>| = |<s, C>|,   C = Uh' S Uw   (LR x LR),
and the sign of the HR step changes slowly from one iteration to the next.
So each exact test keeps C from S = sign(H_T), and a later iteration skips
the HR product while
    tau * (|<s, C>| - m) / N >= tol * (1 + 1e-9),
    m = (lr_h lr_w + hr_h + hr_w + lr_h + lr_w + 1) * eps * (ah' |s| aw),
where ah and aw are the column sums of |Uh| and |Uw|. The term m bounds
the rounding of the LR dot product, of the two products that form C and of
the two that form H in the exact test, since |C| and sum|H| are both at
most ah' |s| aw. The relative 1e-9 covers the rounding of tau, of the mean
and of the division by N. A skipped iteration is therefore one where the
exact test would have computed delta >= tol; every delta that stops the
loop is computed exactly as before, so the image, the iteration count and
the converged flag do not depend on the bound. When the bound falls short
the exact test runs and refreshes C. With `trace` every delta is computed.
"""

import math

import numpy as np

from . import raster
from .errors import InputError


DEFAULT_TAU = 0.02
DEFAULT_TOL = 1e-5
DEFAULT_MAX_ITER = 1000


def reproject(y0: np.ndarray, x: np.ndarray, sigma: float, tau: float = DEFAULT_TAU,
              tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
              trace: list | None = None):
    """Run the re-projection recurrence. Returns (image, iterations, converged).

    `y0` is the HR start estimate and `x` the LR observation; the LR size is
    the shape of `x`. `sigma` is the degradation blur in HR pixels, `tau` the
    step size, `tol` the mean absolute update that stops the loop and
    `max_iter` the cap on iterations. `trace`, when given, collects the
    per-iteration mean absolute update so runs can log their convergence path.
    """
    if not 0 <= tau < math.inf:
        raise InputError(f"tau must be finite and >= 0, got {tau}")
    if not 0 < tol < math.inf:
        raise InputError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise InputError(f"max_iter must be >= 1, got {max_iter}")
    y0 = np.asarray(y0, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    hr_h, hr_w = y0.shape
    lr_h, lr_w = x.shape
    if hr_w < lr_w or hr_h < lr_h:
        raise InputError("HR estimate smaller than the LR observation")

    def axis_matrices(hr_n, lr_n):
        # The degradation blur `sigma` is in HR pixels and one HR pixel is
        # lr_n/hr_n LR pixels along this axis, so the inner blur is scaled by
        # that ratio. The HR value itself would smear the LR residual to its
        # mean and stall the correction.
        up = raster.axis_operator(lr_n, hr_n)
        blur = raster.axis_operator(lr_n, lr_n, sigma * (lr_n / hr_n))
        return blur, up, blur @ (raster.axis_operator(hr_n, lr_n, sigma) @ up)

    blur_h, up_h, residual_h = axis_matrices(hr_h, lr_h)
    blur_w, up_w, residual_w = axis_matrices(hr_w, lr_w)

    smoothed = blur_h @ (raster.degrade_linear(y0, lr_w, lr_h, sigma) - x) @ blur_w.T
    total = np.zeros_like(smoothed)
    # the certified bound of the module docstring
    weight_h = np.abs(up_h).sum(axis=0)
    weight_w = np.abs(up_w).sum(axis=0)
    slack = (lr_h * lr_w + hr_h + hr_w + lr_h + lr_w + 1) * np.finfo(np.float64).eps
    bound = tol * (1 + 1e-9) * hr_h * hr_w
    corr, converged = None, False
    for iterations in range(1, max_iter + 1):
        total += smoothed
        # a NaN bound certifies nothing and falls through to the exact test
        certain = corr is not None and tau * (
            abs(np.vdot(corr, smoothed))
            - slack * (weight_h @ np.abs(smoothed) @ weight_w)) >= bound
        if not certain:
            # U (s U') stays on one OpenBLAS thread at 231 -> 15, where (U s) U'
            # runs threaded and several times slower
            step = up_h @ (smoothed @ up_w.T)
            delta = tau * float(np.mean(np.abs(step)))
            if trace is not None:
                trace.append(delta)
            if delta < tol:
                converged = True
                break
            if trace is None:
                corr = up_h.T @ np.sign(step) @ up_w
        smoothed = smoothed - tau * (residual_h @ smoothed @ residual_w.T)
    return raster.clamp01(y0 - tau * (up_h @ (total @ up_w.T))), iterations, converged
