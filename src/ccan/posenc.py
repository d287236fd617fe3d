"""Fourier-feature positional encoding of patch grid coordinates.

Each spatial axis is normalized to [-1, 1] (top-left patch maps to -1,
bottom-right to 1) and encoded as sin/cos pairs at equidistant
frequencies between 1 and f_max. Both axes are encoded independently
and concatenated, giving 4*I values per coordinate. Angles are
evaluated in float64 before any narrowing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class FrequencyLadder:
    """Equidistant frequencies from 1 to f_max inclusive."""

    count: int
    f_max: float
    frequencies: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frequencies", np.asarray(self.frequencies, dtype=np.float64))


@dataclass(frozen=True)
class GridCoord:
    """A patch position on the tessellation grid."""

    row: int
    col: int
    rows_total: int
    cols_total: int

    def __post_init__(self):
        if not (0 <= self.row < self.rows_total and 0 <= self.col < self.cols_total):
            raise DataError(f"coordinate ({self.row}, {self.col}) outside {self.rows_total}x{self.cols_total} grid")


def frequency_ladder(count, f_max):
    if count < 1:
        raise ConfigError(f"frequency count must be >= 1, got {count}")
    if f_max < 1:
        raise ConfigError(f"f_max must be >= 1, got {f_max}")
    if count == 1:
        freqs = np.array([1.0])
    else:
        freqs = np.linspace(1.0, float(f_max), count)
    return FrequencyLadder(count=count, f_max=float(f_max), frequencies=freqs)


def _normalize_axis(index, total):
    # a single row or column has no extent; it maps to the axis center
    if total == 1:
        return 0.0
    return 2.0 * index / (total - 1) - 1.0


def normalize_coord(coord):
    """Map a grid coordinate to (x_hat, y_hat) in [-1, 1]^2."""
    return (
        _normalize_axis(coord.col, coord.cols_total),
        _normalize_axis(coord.row, coord.rows_total),
    )


def _encode_axis(a_hat, ladder):
    angles = ladder.frequencies * np.pi * a_hat
    parts = np.empty(2 * ladder.count, dtype=np.float64)
    parts[0::2] = np.sin(angles)
    parts[1::2] = np.cos(angles)
    return parts


def encode_position(coord, ladder, append_raw_coords=False):
    """Encoding vector of length 4*I (plus 2 if raw coordinates are appended)."""
    x_hat, y_hat = normalize_coord(coord)
    parts = [_encode_axis(x_hat, ladder), _encode_axis(y_hat, ladder)]
    if append_raw_coords:
        parts.append(np.array([x_hat, y_hat], dtype=np.float64))
    return np.concatenate(parts)


def encoding_width(count, append_raw_coords=False):
    return 4 * count + (2 if append_raw_coords else 0)


def encode_grid(rows, cols, rows_total, cols_total, ladder, append_raw_coords=False):
    """Vectorized ``encode_position`` for arrays of row/col indices."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    x_hat = np.zeros(cols.shape) if cols_total == 1 else 2.0 * cols / (cols_total - 1) - 1.0
    y_hat = np.zeros(rows.shape) if rows_total == 1 else 2.0 * rows / (rows_total - 1) - 1.0
    n = rows.shape[0]
    out = np.empty((n, encoding_width(ladder.count, append_raw_coords)), dtype=np.float64)
    for axis_idx, a_hat in enumerate((x_hat, y_hat)):
        angles = a_hat[:, None] * (ladder.frequencies * np.pi)[None, :]
        base = 2 * ladder.count * axis_idx
        out[:, base + 0 : base + 2 * ladder.count : 2] = np.sin(angles)
        out[:, base + 1 : base + 2 * ladder.count : 2] = np.cos(angles)
    if append_raw_coords:
        out[:, -2] = x_hat
        out[:, -1] = y_hat
    return out


def attach_encodings(tokens, rows, cols, rows_total, cols_total, ladder, append_raw_coords=False):
    """Append each token's positional encoding: N x D_f -> N x (D_f + 4I).

    Token i sits at grid cell (rows[i], cols[i]) of a rows_total x
    cols_total grid. The token prefix is preserved bit for bit; encodings
    are computed in float64 and narrowed to the token dtype.
    """
    tokens = np.asarray(tokens)
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    if tokens.ndim != 2:
        raise DataError(f"expected a 2-D token matrix, got shape {tokens.shape}")
    if rows.shape != (tokens.shape[0],) or cols.shape != (tokens.shape[0],):
        raise DataError(f"{tokens.shape[0]} tokens but {rows.shape} rows and {cols.shape} cols")
    enc = encode_grid(rows, cols, rows_total, cols_total, ladder, append_raw_coords)
    return np.concatenate([tokens, enc], axis=1, dtype=tokens.dtype, casting="same_kind")
