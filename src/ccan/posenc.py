"""Fourier-feature positional encoding of patch grid coordinates.

Each spatial axis is normalized to [-1, 1] (top-left patch maps to -1,
bottom-right to 1) and encoded as sin/cos pairs at equidistant
frequencies between 1 and f_max. Both axes are encoded independently
and concatenated, giving 4*I values per coordinate. Angles are
evaluated in float64 before any narrowing.

``encode_grid`` encodes whole arrays of coordinates at once. Its
one-coordinate scalar form is kept only in ``tests/test_posenc.py``, as
the oracle the vectorized encoder must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError


def frequency_ladder(count, f_max):
    """Equidistant frequencies from 1 to f_max inclusive, as a read-only float64 array."""
    if count < 1:
        raise ConfigError(f"frequency count must be >= 1, got {count}")
    if not 1 <= f_max < np.inf:
        raise ConfigError(f"f_max must be finite and >= 1, got {f_max}")
    freqs = np.linspace(1.0, float(f_max), count)
    freqs.flags.writeable = False
    return freqs


def encode_grid(rows, cols, rows_total, cols_total, ladder):
    """Encode arrays of row/col indices: N x 4I."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    x_hat = np.zeros(cols.shape) if cols_total == 1 else 2.0 * cols / (cols_total - 1) - 1.0
    y_hat = np.zeros(rows.shape) if rows_total == 1 else 2.0 * rows / (rows_total - 1) - 1.0
    n, count = rows.shape[0], len(ladder)
    out = np.empty((n, 4 * count), dtype=np.float64)
    for axis_idx, a_hat in enumerate((x_hat, y_hat)):
        angles = a_hat[:, None] * (ladder * np.pi)[None, :]
        base = 2 * count * axis_idx
        out[:, base + 0 : base + 2 * count : 2] = np.sin(angles)
        out[:, base + 1 : base + 2 * count : 2] = np.cos(angles)
    return out


def attach_encodings(tokens, rows, cols, rows_total, cols_total, ladder):
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
    enc = encode_grid(rows, cols, rows_total, cols_total, ladder)
    return np.concatenate([tokens, enc], axis=1, dtype=tokens.dtype, casting="same_kind")
