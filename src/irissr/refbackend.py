"""Reference x2 backend: nearest-neighbor doubling through the PGM exchange
protocol. Useful as a wiring check for the external-upscaler path:

    python -m irissr.refbackend <in.pgm> <out.pgm>

It uses the standard library only (the `pgm` codec), so one call costs
about an interpreter start-up. The input must be a P5 file with maxval 255,
which is what the driver sends; anything else exits 2 with one line that
names the file.
"""

import sys

from . import pgm
from .errors import RasterError


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python -m irissr.refbackend <in.pgm> <out.pgm>",
              file=sys.stderr)
        return 2
    try:
        width, height, maxval, raw = pgm.read(argv[0])
        if maxval != 255:
            raise RasterError(f"{argv[0]}: maxval {maxval}, expected 255")
    except (OSError, RasterError) as exc:
        print(f"refbackend: {exc}", file=sys.stderr)
        return 2
    # double every sample along its row, then write each doubled row twice
    wide = bytearray(2 * len(raw))
    wide[0::2] = wide[1::2] = raw
    stride = 2 * width
    pgm.write(argv[1], stride, 2 * height,
              b"".join(wide[i : i + stride] * 2 for i in range(0, len(wide), stride)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
