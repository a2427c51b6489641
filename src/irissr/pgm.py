"""Binary PGM (P5) files, read and written with the standard library only.

`raster.read_pgm` and `raster.write_pgm` wrap this codec in numpy, and the
reference backend uses it directly, so an x2 call does not import numpy.
Samples are raw bytes: one byte per pixel when maxval is at most 255, two
big-endian bytes otherwise, rows top to bottom. A file holds one image: it
ends with its pixel data.
"""

from .errors import InputError


def _header_tokens(data: bytes, count: int):
    """Return up to `count` header tokens, skipping '#' comments, and the
    offset just past the last one; fewer when the data ends first."""
    tokens = []
    i = 0
    while len(tokens) < count and i < len(data):
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    return tokens, i


def read(path):
    """Read a P5 file; return (width, height, maxval, samples)."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, offset = _header_tokens(data, 4)
    if not data.startswith(b"P5") or tokens[0] != b"P5":
        raise InputError(f"{path}: not a binary PGM (P5) file")
    if len(tokens) < 4:
        raise InputError(f"{path}: truncated PGM header")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise InputError(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1 or not (0 < maxval < 65536):
        raise InputError(f"{path}: invalid PGM dimensions or maxval")
    offset += 1  # single whitespace after maxval
    nbytes = width * height * (2 if maxval > 255 else 1)
    samples = data[offset : offset + nbytes]
    if len(samples) != nbytes:
        raise InputError(f"{path}: truncated PGM pixel data")
    if len(data) > offset + nbytes:
        raise InputError(f"{path}: {len(data) - offset - nbytes} bytes after "
                          f"the PGM pixel data (a PGM holds one image)")
    return width, height, maxval, samples


def write(path, width: int, height: int, samples8) -> None:
    """Write width*height 8-bit samples as a P5 file with maxval 255."""
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(samples8)
