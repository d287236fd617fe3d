"""Binary PPM (P6) and PGM (P5) reading and writing.

Only maxval 255 is supported; these formats exist so fixtures and
exports stay bit-exact with zero image-library dependencies. Files go
through ``data.BinaryReader`` and ``data.atomic_write``, so a read holds
the pixels once; bytes after the pixels are ignored.
"""

from __future__ import annotations

import numpy as np

from .data import BinaryReader, atomic_write
from .errors import FormatError


def _next_byte(r):
    return r.take(1, "header") if r.offset < r.size else b""


def _read_header_field(r):
    """Skip whitespace and '#' comments; read one field and the byte after it; return the field and its end."""
    ch = _next_byte(r)
    while ch.isspace() or ch == b"#":
        if ch == b"#":  # a comment runs to the end of its line
            while ch not in (b"\n", b""):
                ch = _next_byte(r)
        ch = _next_byte(r)
    token = b""
    while ch and not ch.isspace():
        token += ch
        ch = _next_byte(r)
    end = r.offset - len(ch)  # ch is the whitespace byte that ended the field, or b"" at the end of the file
    if not token:
        raise FormatError("truncated header", offset=end)
    return token, end


def read_pnm(path):
    """Read a binary PGM/PPM into (pixels, channels); pixels is HxWxC uint8."""
    with open(path, "rb") as fh:
        r = BinaryReader(fh)
        magic, _ = _read_header_field(r)
        if magic not in (b"P5", b"P6"):
            raise FormatError(f"unsupported magic {magic!r}", offset=0)
        channels = 1 if magic == b"P5" else 3
        fields = []
        for name in ("width", "height", "maxval"):
            token, end = _read_header_field(r)
            if not token.isdigit():
                raise FormatError(f"non-numeric {name} field {token!r}", offset=end)
            fields.append(int(token))
        width, height, maxval = fields
        if maxval != 255:
            raise FormatError(f"only maxval 255 supported, got {maxval}", offset=end)
        # the single whitespace byte after maxval has been read with it
        expected = width * height * channels
        found = min(expected, r.size - r.offset)
        if found != expected:
            raise FormatError(f"expected {expected} pixel bytes, found {found}", offset=end + 1)
        return r.array((height, width, channels), np.uint8, "pixels"), channels


def _write_pnm(path, magic, pixels):
    height, width = pixels.shape[:2]
    with atomic_write(path) as fh:
        fh.write(f"{magic}\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels).data)


def write_pgm(pixels, path):
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim == 3:
        if pixels.shape[2] != 1:
            raise FormatError("write_pgm expects one channel")
        pixels = pixels[:, :, 0]
    _write_pnm(path, "P5", pixels)


def write_ppm(pixels, path):
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise FormatError("write_ppm expects HxWx3 pixels")
    _write_pnm(path, "P6", pixels)
