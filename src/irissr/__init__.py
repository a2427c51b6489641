"""Iris super-resolution evaluation pipeline.

Simulates low-resolution iris images, reconstructs them (interpolation,
eigen-patch PCA hallucination, or external x2 backends chained log2(n) times),
optionally applies iterative image re-projection, and evaluates both image
quality (PSNR/SSIM/FSIM, full frame and iris region) and recognition accuracy
(log-Gabor and SIFT comparators, logistic-regression fusion, EER).

Submodules load on first use (`irissr.quality`, `from irissr import quality`),
so a process that needs few of them does not pay for the others: the
reference x2 backend loads only `errors` and the standard-library PGM codec
`pgm`, and no numpy.
"""

__version__ = "0.1.0"

_SUBMODULES = ("cli", "dataset", "eigenpatch", "errors", "fusion_eval",
               "iriscode", "pgm", "quality", "raster", "refbackend",
               "reproject", "siftmatch", "sr")


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
