import numpy as np
import pytest

from ccan.errors import ConfigError, DataError
from ccan.posenc import attach_encodings, encode_grid, frequency_ladder


def encode_one(row, col, rows_total, cols_total, ladder):
    """``encode_grid`` for a single coordinate."""
    return encode_grid(np.array([row]), np.array([col]), rows_total, cols_total, ladder)[0]


def normalized(row, col, rows_total, cols_total):
    """(x_hat, y_hat) of one coordinate, read back from its sines at frequency 1/2, which are monotone on [-1, 1]."""
    sines = encode_one(row, col, rows_total, cols_total, np.array([0.5]))[[0, 2]]
    return tuple(float(a) for a in np.arcsin(sines) * 2.0 / np.pi)


def scalar_encoding(row, col, rows_total, cols_total, ladder):
    """The oracle for ``encode_grid``: one coordinate, one axis at a time."""
    parts = []
    for index, total in ((col, cols_total), (row, rows_total)):
        # a single row or column has no extent; it maps to the axis center
        a_hat = 0.0 if total == 1 else 2.0 * index / (total - 1) - 1.0
        angles = ladder * np.pi * a_hat
        parts.append(np.stack([np.sin(angles), np.cos(angles)], axis=1).ravel())
    return np.concatenate(parts)


class TestFrequencyLadder:
    def test_endpoints(self):
        np.testing.assert_allclose(frequency_ladder(2, 10), [1.0, 10.0])

    def test_arithmetic_progression(self):
        # step (10 - 1) / 5
        ladder = frequency_ladder(6, 10)
        np.testing.assert_allclose(ladder, [1.0, 2.8, 4.6, 6.4, 8.2, 10.0])
        diffs = np.diff(ladder)
        assert np.abs(diffs - diffs[0]).max() < 1e-9

    def test_degenerate_single_frequency(self):
        ladder = frequency_ladder(1, 5)
        assert ladder.dtype == np.float64 and ladder.tobytes() == np.array([1.0]).tobytes()
        assert not ladder.flags.writeable

    @pytest.mark.parametrize("count,f_max", [(0, 10), (3, 0.5), (1, float("nan")), (3, float("nan")), (1, float("inf"))])
    def test_invalid_config(self, count, f_max):
        with pytest.raises(ConfigError):
            frequency_ladder(count, f_max)


class TestNormalizeCoord:
    def test_top_left(self):
        assert normalized(0, 0, 4, 4) == (-1.0, -1.0)

    def test_bottom_right(self):
        assert normalized(3, 3, 4, 4) == (1.0, 1.0)

    def test_interior(self):
        # col 2 of 5 -> 2*2/4 - 1 = 0; row 1 of 3 -> 2*1/2 - 1 = 0
        assert normalized(1, 2, 3, 5) == (0.0, 0.0)

    def test_single_axis_maps_to_center(self):
        assert normalized(0, 0, 1, 1) == (0.0, 0.0)


class TestEncodePosition:
    def test_center(self):
        enc = encode_one(1, 1, 3, 3, frequency_ladder(1, 10))
        np.testing.assert_allclose(enc, [0.0, 1.0, 0.0, 1.0], atol=1e-12)

    def test_corners(self):
        # x_hat = 1, y_hat = -1 at frequency 1: angles +-pi
        enc = encode_one(0, 2, 3, 3, frequency_ladder(1, 1))
        np.testing.assert_allclose(enc, [0.0, -1.0, 0.0, -1.0], atol=1e-12)

    def test_two_frequency_x_part(self):
        # x_hat = 0.5, f = [1, 10]: [sin(pi/2), cos(pi/2), sin(5pi), cos(5pi)]
        ladder = frequency_ladder(2, 10)
        enc = encode_one(0, 3, 1, 5, ladder)  # x_hat = 2*3/4 - 1 = 0.5
        np.testing.assert_allclose(enc[:4], [1.0, 0.0, 0.0, -1.0], atol=1e-12)

    def test_bounded(self):
        ladder = frequency_ladder(6, 10)
        for r in range(9):
            for c in range(7):
                assert (np.abs(encode_one(r, c, 9, 7, ladder)) <= 1.0 + 1e-12).all()

    def test_injective_on_grid(self):
        # distinct coordinates on a 32x32 grid give distinct encodings
        ladder = frequency_ladder(6, 10)
        rows, cols = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
        enc = encode_grid(rows.ravel(), cols.ravel(), 32, 32, ladder)
        assert np.unique(np.round(enc, 9), axis=0).shape[0] == 32 * 32

    def test_grid_encoder_matches_scalar(self):
        ladder = frequency_ladder(3, 7)
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 5, size=10)
        cols = rng.integers(0, 6, size=10)
        batch = encode_grid(rows, cols, 5, 6, ladder)
        for i in range(10):
            single = scalar_encoding(int(rows[i]), int(cols[i]), 5, 6, ladder)
            np.testing.assert_array_equal(batch[i], single)


class TestAttachEncodings:
    def test_single_token_at_center(self):
        tokens = np.array([[5.0, 7.0]], dtype=np.float32)
        out = attach_encodings(tokens, [1], [1], 3, 3, frequency_ladder(1, 10))
        np.testing.assert_allclose(out, [[5.0, 7.0, 0.0, 1.0, 0.0, 1.0]], atol=1e-7)

    def test_empty_bag(self):
        out = attach_encodings(np.empty((0, 3), dtype=np.float32), [], [], 4, 4, frequency_ladder(2, 10))
        assert out.shape == (0, 3 + 4 * 2)

    def test_prefix_preserved_exactly(self):
        rng = np.random.default_rng(1)
        tokens = rng.normal(size=(20, 8)).astype(np.float32)
        cells = np.arange(20)
        out = attach_encodings(tokens, cells // 5, cells % 5, 4, 5, frequency_ladder(6, 10))
        assert out.shape == (20, 8 + 24)
        np.testing.assert_array_equal(out[:, :8], tokens)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            attach_encodings(np.zeros((2, 3), dtype=np.float32), [0], [0], 1, 1, frequency_ladder(1, 1))


def test_ladder_dataclass_normalizes_dtype():
    ladder = frequency_ladder(2, 4)
    assert ladder.dtype == np.float64 and not ladder.flags.writeable
    with pytest.raises(ValueError):
        ladder[0] = 2.0
