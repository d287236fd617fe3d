import itertools
import math
import re
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from ccan import preprocess
from ccan.data import FeatureBag, write_bag
from ccan.errors import CCANError, ConfigError, DataError, FormatError
from ccan.netpbm import read_pnm, write_pgm, write_ppm
from ccan.preprocess import (
    _SOBEL_X,
    _SOBEL_Y,
    PreprocessConfig,
    RasterImage,
    _gaussian_kernel,
    _projection_matrix,
    _sectors,
    bilinear_resize,
    canny_edge_fraction,
    canny_edges,
    grayscale,
    is_blurry,
    is_white,
    read_sidecar,
    run_pipeline,
    stub_features,
    tessellate,
)


def noise_patch(seed=0, shape=(256, 256, 3)):
    return np.random.default_rng(seed).integers(0, 256, size=shape).astype(np.uint8)


def tissue_image(width, height, seed=0, block=8):
    """Block-mosaic stand-in for tissue: strong edges so every patch keeps."""
    rng = np.random.default_rng(seed)
    blocks = rng.integers(30, 220, size=(height // block + 1, width // block + 1, 3))
    pixels = np.repeat(np.repeat(blocks, block, axis=0), block, axis=1)[:height, :width]
    return RasterImage(pixels=pixels.astype(np.uint8), microns_per_pixel=1.0)


def step_patch(shape=(256, 256, 3)):
    patch = np.zeros(shape, np.uint8)
    patch[:, shape[1] // 2 :] = 200
    return patch


def checker_patch(shape=(256, 256, 3), cell=8):
    cells = (np.indices(shape[:2]).sum(axis=0) // cell) % 2
    return np.repeat((cells * 255).astype(np.uint8)[:, :, None], shape[2], axis=2)


def blurred_patch(shape=(256, 256, 3), seed=0):
    texture = ndimage.gaussian_filter(np.random.default_rng(seed).normal(0.0, 1.0, shape[:2]), 6.0, mode="nearest")
    texture *= 30.0 / max(texture.std(), 1e-12)  # blurry, but only hysteresis decides it at the default config
    return np.repeat(np.rint(np.clip(128.0 + texture, 0, 255)).astype(np.uint8)[:, :, None], shape[2], axis=2)


def tie_patch(seed, shape=(512, 512, 3)):
    """2x2 blocks of (a, a, a, a + 2): every block sums to 4a + 2, a tie between a and a + 1, over both parities of a."""
    blocks = np.random.default_rng(seed).integers(0, 254, size=(shape[0] // 2, shape[1] // 2, shape[2]))
    pixels = np.kron(blocks, np.ones((2, 2, 1), np.int64))
    pixels[1::2, 1::2] += 2
    return pixels.astype(np.uint8)


# the oracles below are the preprocessing steps as first written; the
# program's versions must give the same bits with less work

def reference_bilinear_resize(pixels, out_h, out_w):
    """Bilinear resize on a float64 copy of the whole crop, gathering the rows for every product."""
    pixels = np.asarray(pixels)
    in_h, in_w = pixels.shape[:2]
    src = pixels.astype(np.float64)

    def axis_coords(out_n, in_n):
        coords = (np.arange(out_n) + 0.5) * (in_n / out_n) - 0.5
        lo = np.floor(coords).astype(np.int64)
        return np.clip(lo, 0, in_n - 1), np.clip(lo + 1, 0, in_n - 1), coords - lo

    y0, y1, fy = axis_coords(out_h, in_h)
    x0, x1, fx = axis_coords(out_w, in_w)
    top = src[y0][:, x0] * (1 - fx)[None, :, None] + src[y0][:, x1] * fx[None, :, None]
    bot = src[y1][:, x0] * (1 - fx)[None, :, None] + src[y1][:, x1] * fx[None, :, None]
    out = top * (1 - fy)[:, None, None] + bot * fy[:, None, None]
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


# one PNM header field: whitespace and '#' comments (each to its line's end), the field, and the byte ending it
_PNM_FIELD = rb"(?:\s|#[^\n]*+\n?)*+(\S++)(?:\s|\Z)"


def reference_read_pnm(data):
    """The pixels a P5 or P6 file's bytes hold, as (height, width, channels) uint8, or None if they hold none."""
    m = re.match(_PNM_FIELD * 4, data)
    if not m or m[1] not in (b"P5", b"P6") or not all(f.isdigit() for f in m.groups()[1:]) or int(m[4]) != 255:
        return None
    shape = (int(m[3]), int(m[2]), 1 if m[1] == b"P5" else 3)
    payload = data[m.end() : m.end() + math.prod(shape)]  # bytes after the pixels are ignored
    return np.frombuffer(payload, np.uint8).reshape(shape) if len(payload) == math.prod(shape) else None


def reference_read_sidecar(data):
    """A sidecar's metadata from its bytes, or None if they hold none."""
    pairs = {}
    for raw in data.splitlines():
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError:
            return None
        if not line:
            continue
        if "=" not in line:
            return None
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    try:
        meta = {"microns_per_pixel": float(pairs["microns_per_pixel"]), "label": int(pairs["label"]),
                "bag_id": pairs["bag_id"], "patient_id": pairs["patient_id"]}
    except (KeyError, ValueError):
        return None
    return meta if 0 < meta["microns_per_pixel"] < math.inf else None


# flips: (position, nonzero XOR mask) pairs, the position taken modulo the file's length
byte_flips = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)), min_size=1, max_size=3)


def flipped(data, flips):
    data = bytearray(data)
    for position, mask in flips:
        data[position % len(data)] ^= mask
    return bytes(data)


def reference_canny_edges(patch_pixels, config=None):
    """Canny with one boolean mask per suppression sector and np.isin over the strong labels."""
    config = config or PreprocessConfig()
    gray = grayscale(patch_pixels)
    smoothed = ndimage.correlate(gray, _gaussian_kernel(config.canny_sigma), mode="nearest")
    gx = ndimage.correlate(smoothed, _SOBEL_X, mode="nearest")
    gy = ndimage.correlate(smoothed, _SOBEL_Y, mode="nearest")
    magnitude = np.hypot(gx, gy)
    angle = np.degrees(np.arctan2(gy, gx)) % 180.0
    h, w = magnitude.shape
    suppressed = np.zeros_like(magnitude)
    mag_p = np.pad(magnitude, 1, mode="constant")
    center = mag_p[1:-1, 1:-1]
    neighbor_pairs = {
        0: (mag_p[1:-1, 2:], mag_p[1:-1, :-2]),
        45: (mag_p[2:, :-2], mag_p[:-2, 2:]),
        90: (mag_p[2:, 1:-1], mag_p[:-2, 1:-1]),
        135: (mag_p[2:, 2:], mag_p[:-2, :-2]),
    }
    sector = np.zeros((h, w), dtype=np.int64)
    sector[(angle >= 22.5) & (angle < 67.5)] = 45
    sector[(angle >= 67.5) & (angle < 112.5)] = 90
    sector[(angle >= 112.5) & (angle < 157.5)] = 135
    for sec, (a, b) in neighbor_pairs.items():
        keep = (sector == sec) & (center >= a) & (center >= b)
        suppressed[keep] = magnitude[keep]
    suppressed[0, :] = suppressed[-1, :] = 0.0
    suppressed[:, 0] = suppressed[:, -1] = 0.0
    suppressed = np.clip(suppressed, 0.0, 255.0)
    strong = suppressed >= config.canny_high
    weak = suppressed >= config.canny_low
    labels, n_labels = ndimage.label(weak, structure=np.ones((3, 3), dtype=np.int64))
    if n_labels == 0:
        return np.zeros_like(strong)
    strong_labels = np.unique(labels[strong])
    return np.isin(labels, strong_labels[strong_labels > 0])


def reference_stub_features(patch_pixels, d_feature, seed):
    """Block means of a float64 copy, projected by a matrix drawn for this call."""
    p = np.asarray(patch_pixels, dtype=np.float64)
    small = p.reshape(16, 16, 16, 16, 3).mean(axis=(1, 3)) / 255.0
    projection = (np.random.default_rng(seed).standard_normal((768, d_feature)) / np.sqrt(768.0)).astype(np.float64)
    return np.tanh(small.reshape(-1) @ projection).astype(np.float32)


def reference_pipeline(image, path, seed, config, monkeypatch):
    """run_pipeline as first written: a luma per filter and the oracles above; returns the QC counts."""
    monkeypatch.setattr(preprocess, "bilinear_resize", reference_bilinear_resize)
    patches = tessellate(image, config)
    kept, n_white, n_blur = [], 0, 0
    for patch in patches:
        if is_white(patch.pixels, config.white_threshold):
            n_white += 1
        elif reference_canny_edges(patch.pixels, config).mean() < config.blur_fraction:
            n_blur += 1
        else:
            kept.append(patch)
    tokens = np.stack([reference_stub_features(p.pixels, config.d_feature, seed) for p in kept])
    write_bag(FeatureBag(bag_id="b", patient_id="p", label=1, tokens=tokens,
                         rows=np.array([p.row for p in kept]), cols=np.array([p.col for p in kept]),
                         rows_total=max(p.row for p in patches) + 1, cols_total=max(p.col for p in patches) + 1),
              path)
    return len(patches), n_white, n_blur, len(kept)


def stained_raster(mpp, kinds, seed=0):
    """One row of patch cells, each near-white, blurred tissue or sharp tissue."""
    rng = np.random.default_rng(seed)
    side = round(256 / mpp)
    cells = []
    for kind in kinds:
        if kind == "white":
            cell = rng.normal(246.0, 3.0, (side, side, 3))
        else:
            grain = round((2.0 if kind == "sharp" else 32.0) / mpp)
            texture = np.kron(rng.normal(0.0, 1.0, (side // grain + 1, side // grain + 1, 1)),
                              np.ones((grain, grain, 1)))[:side, :side]
            if kind == "blur":
                texture = ndimage.gaussian_filter(texture, (8.0 / mpp, 8.0 / mpp, 0), mode="nearest")
            cell = np.array([196.0, 118.0, 168.0]) + 36.0 * texture * np.array([1.0, 1.2, 0.8])
        cells.append(cell)
    pixels = np.rint(np.clip(np.concatenate(cells, axis=1), 0, 255)).astype(np.uint8)
    return RasterImage(pixels=pixels, microns_per_pixel=mpp)


class TestTessellate:
    def test_patch_side_from_microns(self):
        img = RasterImage(pixels=np.zeros((1024, 1024, 3), np.uint8), microns_per_pixel=0.5)
        patches = tessellate(img)
        assert [(p.row, p.col) for p in patches] == [(0, 0), (0, 1), (1, 0), (1, 1)]  # 1024 / 512 per axis
        assert patches[0].pixels.shape == (256, 256, 3)

    def test_edge_remainder_dropped(self):
        img = RasterImage(pixels=np.zeros((515, 1030, 3), np.uint8), microns_per_pixel=2.0)
        patches = tessellate(img)  # side 128: grid 4 x 8
        assert len(patches) == 32
        img2 = RasterImage(pixels=np.zeros((515, 1030, 3), np.uint8), microns_per_pixel=0.5)
        patches2 = tessellate(img2)  # side 512: 1 x 2 grid, remainders dropped
        assert [(p.row, p.col) for p in patches2] == [(0, 0), (0, 1)]

    def test_identity_scale_is_bit_exact(self):
        pixels = noise_patch(seed=1, shape=(512, 512, 3))
        img = RasterImage(pixels=pixels, microns_per_pixel=1.0)
        patches = tessellate(img)
        np.testing.assert_array_equal(patches[0].pixels, pixels[:256, :256])
        np.testing.assert_array_equal(patches[3].pixels, pixels[256:, 256:])

    def test_too_small_image(self):
        img = RasterImage(pixels=np.zeros((100, 100, 3), np.uint8), microns_per_pixel=1.0)
        with pytest.raises(DataError):
            tessellate(img)

    @pytest.mark.parametrize("mpp", [0.0, -1.0, float("nan"), float("inf"), 1e-308])
    def test_pixel_size_must_be_positive_and_finite(self, mpp):
        with pytest.raises(DataError) as err:  # 1e-308 is a finite pixel size, but a patch then spans inf px
            tessellate(RasterImage(pixels=np.zeros((4, 4, 3), np.uint8), microns_per_pixel=mpp))
        assert str(err.value) == (
            "patch side inf px (256.0 microns at 1e-308 microns/px) must be finite and round to at least 1 px"
            if mpp == 1e-308 else f"microns_per_pixel must be positive and finite, got {mpp}")

    @pytest.mark.parametrize("pixels, value", [
        (np.array([[1.0, 300.7]]), "300.7"),
        (np.array([[0.5, 2.0]]), "0.5"),
        (np.array([[7, -1]]), "-1"),
        (np.array([[256, 0]]), "256"),
        (np.array([[1.0, float("nan")]]), "nan"),
        (np.array([[float("inf")]]), "inf"),
        (np.array([["7"]]), "7"),
        (np.array([[None]]), "None"),
        (np.array([[1 + 2j]]), "(1+2j)"),
    ], ids=["300.7", "0.5", "-1", "256", "nan", "inf", "text", "object", "complex"])
    def test_pixel_values_uint8_cannot_hold_rejected(self, pixels, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a cast would warn on NaN only, and wrap or truncate the rest silently
            with pytest.raises(DataError) as err:
                RasterImage(pixels=pixels, microns_per_pixel=1.0)
        assert str(err.value) == f"pixel value {value} is not an integer in 0..255"

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.uint16, bool])
    def test_integer_pixel_values_in_range_load(self, dtype):
        pixels = np.array([[0, 1], [254, 255]]).astype(dtype)
        img = RasterImage(pixels=pixels, microns_per_pixel=1.0)
        assert img.pixels.dtype == np.uint8 and img.pixels.shape == (2, 2, 1)
        np.testing.assert_array_equal(img.pixels[:, :, 0], pixels.astype(np.int64))

    def test_grayscale_input_replicated(self):
        img = RasterImage(pixels=np.full((256, 256), 80, np.uint8), microns_per_pixel=1.0)
        patches = tessellate(img)
        assert patches[0].pixels.shape == (256, 256, 3)
        assert (patches[0].pixels == 80).all()

    def test_coordinates_unique_and_disjoint(self):
        img = tissue_image(1024, 768, seed=2)
        patches = tessellate(img)
        coords = {(p.row, p.col) for p in patches}
        assert len(coords) == len(patches) == 12
        for p in patches:  # at 1.0 um/px each patch is its own 256 px grid cell, copied
            np.testing.assert_array_equal(p.pixels, img.pixels[p.row * 256 : (p.row + 1) * 256,
                                                               p.col * 256 : (p.col + 1) * 256])


class TestBilinearResize:
    def test_identity(self):
        pixels = noise_patch(seed=3)
        np.testing.assert_array_equal(bilinear_resize(pixels, 256, 256), pixels)

    def test_constant_preserved(self):
        pixels = np.full((64, 64, 3), 119, np.uint8)
        assert (bilinear_resize(pixels, 32, 32) == 119).all()

    def test_two_to_one_downscale_averages(self):
        pixels = np.zeros((4, 4, 1), np.uint8)
        pixels[::2, ::2, 0] = 100
        pixels[1::2, 1::2, 0] = 100
        out = bilinear_resize(pixels, 2, 2)
        assert (out == 50).all()  # half-pixel centers average each 2x2 block

    @pytest.mark.parametrize("pixels, out_h, out_w", [
        (noise_patch(seed=20, shape=(512, 512, 3)), 256, 256),
        (step_patch((512, 512, 3)), 256, 256),
        (checker_patch((512, 512, 3), cell=3), 256, 256),
        (noise_patch(seed=21, shape=(300, 200, 3)), 256, 256),  # non-integer ratios, down and up
        (noise_patch(seed=22, shape=(90, 90, 1)), 256, 256),  # single channel
        (noise_patch(seed=23, shape=(7, 3, 1)), 256, 256),
        (noise_patch(seed=24, shape=(64, 48, 3)), 37, 53),
        (noise_patch(seed=25, shape=(1, 41, 3)), 256, 256),
        (noise_patch(seed=26, shape=(41, 1, 3)), 256, 256),
        (noise_patch(seed=27, shape=(256, 256, 3)), 256, 256),  # identity
        (noise_patch(seed=29, shape=(768, 768, 3)), 256, 256),  # whole factors take the integer path
        (noise_patch(seed=30, shape=(1024, 1024, 3)), 256, 256),
        (noise_patch(seed=31, shape=(512, 768, 3)), 256, 256),
        (noise_patch(seed=32, shape=(512, 512, 1)), 256, 256),
        (tie_patch(seed=33), 256, 256),
        (noise_patch(seed=34, shape=(128, 128, 3)), 256, 256),  # a whole upscale stays on the float path
    ], ids=["noise", "step", "checker", "300x200", "1-channel", "7x3", "64x48", "1xN", "Nx1", "identity",
            "k3", "k4", "k2xk3", "1-channel-k2", "ties", "upscale"])
    def test_equals_the_reference(self, pixels, out_h, out_w):
        got = bilinear_resize(pixels, out_h, out_w)
        assert got.dtype == np.uint8 and got.shape == (out_h, out_w, pixels.shape[2])
        np.testing.assert_array_equal(got, reference_bilinear_resize(pixels, out_h, out_w))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 16), st.integers(1, 16),
           st.sampled_from([1, 3]))
    def test_whole_factors_equal_the_reference(self, data, k_h, k_w, out_h, out_w, channels):
        pixels = data.draw(hnp.arrays(np.uint8, (k_h * out_h, k_w * out_w, channels)))
        np.testing.assert_array_equal(bilinear_resize(pixels, out_h, out_w),
                                      reference_bilinear_resize(pixels, out_h, out_w))

    def test_holds_a_block_of_float_rows_at_a_time(self):
        # 512 px takes the integer path; 1016 px (0.252 microns/px) the float path
        for side in (512, 1016):
            pixels = noise_patch(seed=28, shape=(side, side, 3))
            bilinear_resize(pixels, 256, 256)
            tracemalloc.start()
            try:
                out = bilinear_resize(pixels, 256, 256)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the whole-image float64 rows took 5.9 MB; the 8-bit output alone is 0.2 MB
            assert peak < 1_000_000, (side, peak)
            assert out.nbytes == 256 * 256 * 3


class TestWhiteFilter:
    def test_all_white_rejected(self):
        assert is_white(np.full((256, 256, 3), 255, np.uint8)) is True

    def test_exactly_at_threshold_kept(self):
        assert is_white(np.full((256, 256, 3), 224, np.uint8)) is False

    def test_half_and_half_kept(self):
        patch = np.full((256, 256, 3), 255, np.uint8)
        patch[128:] = 100  # mean 177.5
        assert is_white(patch) is False

    def test_luma_weights(self):
        patch = np.zeros((2, 2, 3), np.float64)
        patch[..., 0] = 100
        np.testing.assert_allclose(grayscale(patch), np.full((2, 2), 29.9))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32, np.float64])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_luma_equals_the_float64_reference(self, dtype, channels):
        patch = noise_patch(seed=36, shape=(40, 30, channels)).astype(dtype)
        p = np.asarray(patch, dtype=np.float64)  # the reference reads every input as a float64 copy
        want = 0.299 * p[:, :, 0] + 0.587 * p[:, :, 1] + 0.114 * p[:, :, 2] if channels == 3 else p[:, :, 0]
        got = grayscale(patch)
        assert got.dtype == np.float64 and got.shape == (40, 30)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def edge_padded_correlation(img, kernel):
    """The reference for the Canny filters: each kernel tap summed over edge-replicated padding."""
    kh, kw = kernel.shape
    padded = np.pad(img, ((kh // 2, kh // 2), (kw // 2, kw // 2)), mode="edge")
    out = np.zeros_like(img, dtype=np.float64)
    for dy in range(kh):
        for dx in range(kw):
            out += kernel[dy, dx] * padded[dy : dy + img.shape[0], dx : dx + img.shape[1]]
    return out


class TestCanny:
    def test_filters_equal_the_loop_reference(self, monkeypatch):
        calls = []
        correlate, sobel = ndimage.correlate, preprocess._sobel_gradients

        def correlate_spy(img, kernel, **kwargs):
            calls.append((img, kernel, correlate(img, kernel, **kwargs)))
            return calls[-1][2]

        def sobel_spy(smoothed):
            gx, gy = sobel(smoothed)
            calls.extend([(smoothed, _SOBEL_X, gx), (smoothed, _SOBEL_Y, gy)])
            return gx, gy

        monkeypatch.setattr(ndimage, "correlate", correlate_spy)
        monkeypatch.setattr(preprocess, "_sobel_gradients", sobel_spy)
        step = np.zeros((64, 48, 3), np.uint8)
        step[:, 20:] = 200
        for patch in (step, noise_patch(seed=5, shape=(64, 48, 3)), noise_patch(seed=6, shape=(7, 3, 1)),
                      noise_patch(seed=7, shape=(1, 9, 1)), np.full((5, 4, 3), 90, np.uint8)):
            canny_edge_fraction(patch)
            canny_edge_fraction(patch, PreprocessConfig(canny_sigma=1.0))
        # per call the Gaussian through ndimage, then Sobel x and y
        assert [kernel.shape for _, kernel, _ in calls] == [(5, 5), (3, 3), (3, 3)] * 10
        for img, kernel, out in calls:
            assert out.shape == img.shape
            np.testing.assert_array_equal(out.view(np.uint64), edge_padded_correlation(img, kernel).view(np.uint64))

    def test_constant_patch_has_no_edges(self):
        assert canny_edge_fraction(np.full((256, 256, 3), 120, np.uint8)) == 0.0

    def test_step_edge_thinned(self):
        step = np.zeros((256, 256, 3), np.uint8)
        step[:, 128:] = 200
        fraction = canny_edge_fraction(step)
        assert 0.0 < fraction < 0.08
        assert fraction == 254 / 65536  # golden: one-column edge, borders zeroed

    def test_noise_well_above_blur_cutoff(self):
        fraction = canny_edge_fraction(noise_patch(seed=0))
        assert fraction > 0.02
        assert fraction == pytest.approx(0.078857421875, abs=1e-12)  # golden

    def test_checkerboard_kept(self):
        cells = (np.indices((256, 256)).sum(axis=0) // 8) % 2
        checker = np.repeat((cells * 255).astype(np.uint8)[:, :, None], 3, axis=2)
        assert is_blurry(checker) is False
        assert canny_edge_fraction(checker) == pytest.approx(0.9538726806640625, abs=1e-12)


    @pytest.mark.parametrize("config", [
        PreprocessConfig(),
        PreprocessConfig(canny_sigma=1.0),
        PreprocessConfig(canny_low=120.0, canny_high=60.0),  # strong pixels outside every weak component
    ], ids=["default", "sigma1", "low-above-high"])
    @pytest.mark.parametrize("patch", [
        noise_patch(seed=30),
        step_patch(),
        checker_patch(),
        checker_patch(cell=1),
        bilinear_resize(noise_patch(seed=31, shape=(300, 200, 3)), 256, 256),
        noise_patch(seed=32, shape=(64, 64, 1)),
        noise_patch(seed=6, shape=(7, 3, 1)),
        noise_patch(seed=5, shape=(64, 48, 3)),
        noise_patch(seed=33, shape=(1, 40, 3)),
        noise_patch(seed=34, shape=(40, 1, 3)),
        np.full((32, 32, 3), 120, np.uint8),
    ], ids=["noise", "step", "checker", "checker1", "resized", "1-channel", "7x3", "64x48", "1xN", "Nx1", "flat"])
    def test_equals_the_reference(self, patch, config):
        got = canny_edges(patch, config)
        assert got.dtype == bool and got.shape == patch.shape[:2]
        np.testing.assert_array_equal(got, reference_canny_edges(patch, config))

    def test_angles_on_sector_edges_equal_the_reference(self, monkeypatch):
        # gradients whose angle is exactly 22.5, 67.5, 112.5 or 157.5 degrees, scaled by 64 (which keeps
        # the angle), spread over a random field; integer images never give such angles
        rng = np.random.default_rng(50)
        gx, gy = rng.normal(0.0, 80.0, (2, 32, 32))
        on_edge = rng.random((32, 32)) < 0.5
        for i, edge in enumerate((22.5, 67.5, 112.5, 157.5)):
            slope = np.tan(np.radians(edge))
            ys = slope + np.arange(-200, 201) * np.spacing(abs(slope))
            exact = ys[np.degrees(np.arctan2(ys, 1.0)) % 180.0 == edge][0]
            where = on_edge & (np.arange(32 * 32).reshape(32, 32) % 4 == i)
            gx[where], gy[where] = 64.0, 64.0 * exact
        angle = np.degrees(np.arctan2(gy, gx)) % 180.0
        assert np.isin(angle, [22.5, 67.5, 112.5, 157.5]).sum() == on_edge.sum()
        # the program's gradients come from its Sobel function, the reference's from ndimage; the Gaussian passes
        monkeypatch.setattr(preprocess, "_sobel_gradients", lambda smoothed: (gx.copy(), gy.copy()))
        monkeypatch.setattr(ndimage, "correlate",
                            lambda img, kernel, **kw: gx if kernel is _SOBEL_X else gy if kernel is _SOBEL_Y else img)
        patch = np.zeros((32, 32, 1), np.uint8)
        np.testing.assert_array_equal(canny_edges(patch), reference_canny_edges(patch))

    def test_fold_gives_the_sectors_of_the_remainder(self):
        # every float within 5,000 ulps of 0, each sector edge and 180, of either sign, and a uniform spread of
        # [-180, 180], the range of degrees(arctan2)
        sweeps = [c + np.arange(-5000, 5001) * np.spacing(c) for c in (0.0, 22.5, 67.5, 112.5, 157.5, 180.0)]
        angles = np.concatenate(sweeps + [-s for s in sweeps]
                                + [np.random.default_rng(51).uniform(-180.0, 180.0, 1_000_000), [-0.0]])
        angles = angles[np.abs(angles) <= 180.0]
        folded = angles % 180.0
        want = sum((folded >= edge).astype(np.uint8) for edge in (22.5, 67.5, 112.5, 157.5))
        want[want == 4] = 0  # from 157.5 degrees the E/W sector again
        got = _sectors(angles.copy())
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want)
        for edge in (22.5, 67.5, 112.5, 157.5):  # the sweep crosses each edge from both sides
            assert (folded == edge).any() and ((folded > edge - 1e-9) & (folded < edge)).any()

    @pytest.mark.parametrize("sigma", [1.4, 1.0, 0.3, 7.0, 1e-160, 1e100])
    def test_gaussian_kernel_keeps_its_bits_and_is_made_once(self, sigma):
        ax = np.arange(5) - 2.0
        with np.errstate(over="ignore"):  # at 1e-160 the outer taps overflow to -inf, as first written
            g = np.exp(-(ax**2) / (2.0 * sigma**2))
        want = np.outer(g, g) / np.outer(g, g).sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = _gaussian_kernel(sigma)
        np.testing.assert_array_equal(kernel.view(np.uint64), want.view(np.uint64))
        assert _gaussian_kernel(sigma) is kernel and not kernel.flags.writeable

    @pytest.mark.parametrize("sigma", [1e300, 1.7e308, 1e154, 1e-200, 5e-324])
    def test_gaussian_kernel_at_the_ends_of_the_range_is_its_limit(self, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = _gaussian_kernel(sigma)
        impulse = np.zeros((5, 5))
        impulse[2, 2] = 1.0
        np.testing.assert_array_equal(kernel, np.full((5, 5), 0.04) if sigma > 1 else impulse)

    def test_luma_input_gives_the_same_edges(self):
        patch = noise_patch(seed=35)
        np.testing.assert_array_equal(grayscale(grayscale(patch)).view(np.uint64), grayscale(patch).view(np.uint64))
        np.testing.assert_array_equal(canny_edges(grayscale(patch)), canny_edges(patch))


# the default, then the bounds' edge cases: strong pixels that are not weak (low above high), every pixel weak
# (low <= 0), every pixel strong (high <= 0), and cutoffs that every fraction, or none, lies below
BLUR_CONFIGS = [PreprocessConfig(), PreprocessConfig(canny_low=120.0, canny_high=60.0),
                PreprocessConfig(canny_low=0.0), PreprocessConfig(canny_low=-5.0, canny_high=30.0),
                PreprocessConfig(canny_high=0.0), PreprocessConfig(canny_low=20.0, canny_high=-1.0),
                PreprocessConfig(blur_fraction=0.0), PreprocessConfig(blur_fraction=1.0),
                PreprocessConfig(blur_fraction=1.5)]


def assert_blur_verdicts_equal_the_reference(patch, configs):
    for config in configs:
        fraction = reference_canny_edges(patch, config).mean()
        for c in (config, replace(config, blur_fraction=float(fraction))):  # the second is the patch's own fraction
            assert is_blurry(patch, c) is bool(fraction < c.blur_fraction), (c, fraction)


class TestBlurFilter:
    def test_constant_is_blurry(self):
        assert is_blurry(np.full((256, 256, 3), 50, np.uint8)) is True

    @pytest.mark.parametrize("shape", [(256, 256), (1, 1), (2, 2), (3, 3), (1, 256), (256, 1), (3, 40), (37, 5)],
                             ids=lambda shape: f"{shape[0]}x{shape[1]}")
    @pytest.mark.parametrize("kind", [
        lambda shape: np.full(shape, 90, np.uint8), lambda shape: noise_patch(seed=60, shape=shape), blurred_patch,
        step_patch, checker_patch,
    ], ids=["flat", "noise", "blurred", "step", "checker"])
    def test_verdicts_equal_the_reference(self, kind, shape):
        assert_blur_verdicts_equal_the_reference(kind((*shape, 3)), BLUR_CONFIGS)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf, in both
    @pytest.mark.parametrize("seed", range(3))
    def test_luma_with_nan_and_inf_gives_the_reference_verdicts(self, seed):
        rng = np.random.default_rng(70 + seed)
        luma = ndimage.gaussian_filter(rng.normal(120.0, 60.0, (48, 40)), 2.0 * seed)
        for value, share in ((np.nan, 0.002), (np.inf, 0.002), (-np.inf, 0.002)):
            luma[rng.random(luma.shape) < share] = value
        lone_nan = np.full((40, 40), 90.0)
        lone_nan[20, 20] = np.nan
        for patch in (luma, lone_nan, np.full((9, 9), np.inf), np.full((9, 9), np.nan)):
            assert_blur_verdicts_equal_the_reference(patch, BLUR_CONFIGS)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 40), st.integers(1, 40), st.sampled_from([0, 1, 8, 64, 255]),
           st.floats(-20.0, 300.0), st.floats(-20.0, 300.0), st.floats(-0.1, 1.6))
    def test_verdicts_equal_the_reference_for_any_shape_and_thresholds(self, data, h, w, amplitude, low, high,
                                                                         blur_fraction):
        pixels = data.draw(hnp.arrays(np.uint8, (h, w, 1), elements=st.integers(0, 255)))
        patch = (pixels.astype(np.int64) * amplitude // 255).astype(np.uint8)
        config = PreprocessConfig(canny_low=low, canny_high=high, blur_fraction=blur_fraction)
        assert_blur_verdicts_equal_the_reference(patch, [config])

    def test_bounds_decide_before_hysteresis(self, monkeypatch):
        def label(*args, **kwargs):
            raise AssertionError("hysteresis ran")

        monkeypatch.setattr(ndimage, "label", label)
        ramp = np.repeat(np.clip(np.arange(256) * 10 - 1180, 0, 200).astype(np.uint8)[None, :, None], 256, axis=0)
        assert is_blurry(np.full((256, 256, 3), 90, np.uint8)) is True  # no magnitude reaches canny_low
        assert is_blurry(np.repeat(ramp, 3, axis=2)) is True  # a wide band reaches it, one line of it is kept
        assert is_blurry(checker_patch()) is False  # the strong pixels alone pass the cutoff
        with pytest.raises(AssertionError, match="hysteresis ran"):
            canny_edges(checker_patch())

    def test_cutoff_is_strict(self):
        step = np.zeros((256, 256, 3), np.uint8)
        step[:, 128:] = 200
        fraction = canny_edge_fraction(step)
        at_cutoff = PreprocessConfig(blur_fraction=fraction)
        below_cutoff = PreprocessConfig(blur_fraction=fraction + 1e-9)
        assert is_blurry(step, at_cutoff) is False  # fraction == cutoff keeps
        assert is_blurry(step, below_cutoff) is True


class TestStubFeatures:
    def test_deterministic(self):
        patch = noise_patch(seed=4)
        np.testing.assert_array_equal(stub_features(patch, 64, seed=1), stub_features(patch, 64, seed=1))

    def test_default_dimension(self):
        assert stub_features(noise_patch(seed=5)).shape == (2048,)

    def test_bounded_by_tanh(self):
        token = stub_features(noise_patch(seed=6), 128, seed=2)
        assert (np.abs(token) < 1.0).all()

    def test_distinct_patches_distinct_tokens(self):
        a = stub_features(noise_patch(seed=7), 64, seed=3)
        b = stub_features(noise_patch(seed=8), 64, seed=3)
        assert np.abs(a - b).max() > 1e-3

    def test_wrong_shape_rejected(self):
        with pytest.raises(DataError):
            stub_features(np.zeros((128, 128, 3), np.uint8))

    @pytest.mark.parametrize("dtype", [np.int16, np.uint16, np.float64])
    def test_wider_pixels_rejected(self, dtype):
        with pytest.raises(DataError, match=f"8-bit pixels, got {np.dtype(dtype)}"):
            stub_features(np.full((256, 256, 3), 255, dtype))

    @pytest.mark.parametrize("patch", [
        noise_patch(seed=40), step_patch(), checker_patch(), np.full((256, 256, 3), 255, np.uint8),
    ], ids=["noise", "step", "checker", "white"])
    def test_equals_the_reference(self, patch):
        got = stub_features(patch, 96, seed=4)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32), reference_stub_features(patch, 96, 4).view(np.uint32))


class TestProjection:
    def test_equals_a_fresh_draw_and_is_read_only(self):
        matrix = _projection_matrix(48, 5)
        fresh = np.random.default_rng(5).standard_normal((768, 48)) / np.sqrt(768.0)
        assert matrix.dtype == np.float64
        np.testing.assert_array_equal(matrix.view(np.uint64), fresh.view(np.uint64))
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_drawn_once_across_runs(self, tmp_path, monkeypatch):
        img = tissue_image(512, 512, seed=41)
        draws = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed) or default_rng(seed))
        config = PreprocessConfig(d_feature=24)
        first, _ = run_pipeline(img, tmp_path / "a.ccfb", 1, "b", "p", seed=9041, config=config)
        second, _ = run_pipeline(img, tmp_path / "b.ccfb", 1, "b", "p", seed=9041, config=config)
        assert draws == [9041]
        np.testing.assert_array_equal(first.tokens, second.tokens)


class TestPipeline:
    def test_all_white_image_fails_with_full_qc(self, tmp_path):
        img = RasterImage(pixels=np.full((512, 512, 3), 255, np.uint8), microns_per_pixel=1.0)
        with pytest.raises(DataError):
            run_pipeline(img, tmp_path / "bag.ccfb", 0, "b", "p", seed=0,
                         config=PreprocessConfig(d_feature=32))

    def test_counts_consistent_and_subgrid(self, tmp_path):
        # 3 x 4 grid: two white patches, one flat (blurry) patch, rest textured
        pixels = tissue_image(1024, 768, seed=9).pixels.copy()
        pixels[:256, :256] = 255  # white
        pixels[256:512, :256] = 250  # white
        pixels[512:768, :256] = 90  # constant: blurry
        img = RasterImage(pixels=pixels, microns_per_pixel=1.0)
        bag, qc = run_pipeline(img, tmp_path / "bag.ccfb", 1, "b", "p", seed=1,
                               config=PreprocessConfig(d_feature=16))
        assert qc.total == 12
        assert qc.white_rejected == 2
        assert qc.blur_rejected == 1
        assert qc.kept == 9 == bag.n_tokens == qc.total - qc.white_rejected - qc.blur_rejected
        assert bag.rows_total == 3 and bag.cols_total == 4
        assert (0, 0) not in set(zip(bag.rows.tolist(), bag.cols.tolist()))

    def test_rerun_byte_identical(self, tmp_path):
        img = tissue_image(512, 512, seed=10)
        p1, p2 = tmp_path / "a.ccfb", tmp_path / "b.ccfb"
        run_pipeline(img, p1, 1, "b", "p", seed=2, config=PreprocessConfig(d_feature=16))
        run_pipeline(img, p2, 1, "b", "p", seed=2, config=PreprocessConfig(d_feature=16))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("mpp", [0.5, 1.0])
    def test_bag_and_qc_equal_the_reference(self, tmp_path, monkeypatch, mpp):
        img = stained_raster(mpp, ["white", "sharp", "blur", "sharp", "white", "blur", "sharp"], seed=42)
        bag, qc = run_pipeline(img, tmp_path / "bag.ccfb", 1, "b", "p", seed=7)
        want = reference_pipeline(img, tmp_path / "reference.ccfb", 7, PreprocessConfig(), monkeypatch)
        assert (qc.total, qc.white_rejected, qc.blur_rejected, qc.kept) == want == (7, 2, 2, 3)
        assert (tmp_path / "bag.ccfb").read_bytes() == (tmp_path / "reference.ccfb").read_bytes()

    def test_one_luma_per_patch(self, tmp_path, monkeypatch):
        lumas = []
        luma = preprocess.grayscale

        def spy(pixels):
            if np.ndim(pixels) == 3:
                lumas.append(pixels.shape)
            return luma(pixels)

        monkeypatch.setattr(preprocess, "grayscale", spy)
        img = stained_raster(1.0, ["white", "sharp", "blur"], seed=43)
        _, qc = run_pipeline(img, tmp_path / "bag.ccfb", 1, "b", "p", config=PreprocessConfig(d_feature=8))
        assert (qc.white_rejected, qc.blur_rejected, qc.kept) == (1, 1, 1)
        assert len(lumas) == qc.total

    @pytest.mark.parametrize("change, message", [
        ({"patch_microns": float("nan")}, "patch_microns must be positive and finite, got nan"),
        ({"patch_microns": 0.0}, "patch_microns must be positive and finite, got 0.0"),
        ({"canny_sigma": 0.0}, "canny_sigma must be positive and finite, got 0.0"),
        ({"canny_sigma": float("inf")}, "canny_sigma must be positive and finite, got inf"),
        ({"white_threshold": float("nan")}, "white_threshold must be a number, got nan"),
        ({"blur_fraction": float("nan")}, "blur_fraction must be a number, got nan"),
        ({"canny_low": float("nan")}, "canny_low must be a number, got nan"),
        ({"canny_high": float("nan")}, "canny_high must be a number, got nan"),
        ({"d_feature": 0}, "d_feature must be >= 1, got 0"),
        ({"d_feature": -5}, "d_feature must be >= 1, got -5"),
        ({"white_threshold": float("inf")}, "white_threshold must be finite, got inf"),
        ({"white_threshold": -float("inf")}, "white_threshold must be finite, got -inf"),
        ({"blur_fraction": float("inf")}, "blur_fraction must be finite, got inf"),
        ({"canny_low": -float("inf")}, "canny_low must be finite, got -inf"),
        ({"canny_high": float("inf")}, "canny_high must be finite, got inf"),
    ])
    def test_bad_config_rejected_before_any_work(self, tmp_path, change, message):
        assert PreprocessConfig().validate() == PreprocessConfig()
        with pytest.raises(ConfigError) as err:
            run_pipeline(tissue_image(256, 256), tmp_path / "bag.ccfb", 1, "b", "p", config=PreprocessConfig(**change))
        assert str(err.value) == message
        assert not (tmp_path / "bag.ccfb").exists()

    @pytest.mark.parametrize("label, bag_id, patient_id, message", [
        (300, "b", "p", "label 300 does not fit in one byte"),
        (-1, "b", "p", "label -1 does not fit in one byte"),
        (1, "b" * 256, "p", f"identifier longer than 255 UTF-8 bytes: {'b' * 32!r}..."),
        (1, "b", "é" * 128, f"identifier longer than 255 UTF-8 bytes: {'é' * 32!r}..."),  # 256 bytes
    ], ids=["300", "-1", "bag_id", "patient_id"])
    def test_bad_label_or_id_rejected_before_any_patch_is_cut(self, tmp_path, monkeypatch, label, bag_id,
                                                              patient_id, message):
        def cut(*args):
            raise AssertionError("tessellate called")

        monkeypatch.setattr(preprocess, "tessellate", cut)
        with pytest.raises(DataError) as err:
            run_pipeline(tissue_image(256, 256), tmp_path / "bag.ccfb", label, bag_id, patient_id)
        assert str(err.value) == message

    def test_white_and_blur_filters_order_independent(self):
        # a patch that is both white and blurry counts as white, never kept
        patch = np.full((256, 256, 3), 255, np.uint8)
        assert is_white(patch) and is_blurry(patch)


class TestThreads:
    @staticmethod
    def usable_cpus(monkeypatch, n):
        monkeypatch.setattr(preprocess.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    @staticmethod
    def spy_pools(monkeypatch):
        """The worker count of every pool made, in order."""
        pools = []

        class Spy(ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(preprocess, "ThreadPoolExecutor", Spy)
        return pools

    @pytest.mark.parametrize("mpp, pools_at_4", [(0.5, [3, 3]), (1.0, [3])])
    def test_bag_bytes_and_qc_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch, mpp, pools_at_4):
        img = stained_raster(mpp, ["white", "sharp", "blur", "sharp", "white", "blur", "sharp"], seed=44)
        pools = self.spy_pools(monkeypatch)
        threads = threading.active_count()
        got = {}
        for cpus in (1, 4):
            self.usable_cpus(monkeypatch, cpus)
            pools.clear()
            path = tmp_path / f"{cpus}.ccfb"
            _, qc = run_pipeline(img, path, 1, "b", "p", seed=5)
            got[cpus] = (qc.total, qc.white_rejected, qc.blur_rejected, qc.kept, path.read_bytes())
            # one CPU starts no thread; four run the calling thread and three more, in resizing and filtering
            assert pools == {1: [], 4: pools_at_4}[cpus]
            assert threading.active_count() == threads  # no thread outlives the call
        assert got[1] == got[4]
        assert got[1][:4] == (7, 2, 2, 3)

    def test_more_cpus_than_patches_and_the_cpu_count_fallback(self, monkeypatch):
        pools = self.spy_pools(monkeypatch)
        img = stained_raster(0.5, ["sharp", "blur"], seed=46)
        self.usable_cpus(monkeypatch, 8)
        tessellate(img)
        monkeypatch.delattr(preprocess.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(preprocess.os, "cpu_count", lambda: None)  # unknown: one thread
        tessellate(img)
        monkeypatch.setattr(preprocess.os, "cpu_count", lambda: 3)
        tessellate(stained_raster(0.5, ["sharp"] * 3, seed=47))
        assert pools == [1, 2]

    def test_a_worker_error_reaches_the_caller_and_writes_no_bag(self, tmp_path, monkeypatch):
        self.usable_cpus(monkeypatch, 4)
        calls = itertools.count()
        blurry = preprocess.is_blurry

        def failing(pixels, config=None):
            if next(calls) == 2:
                raise DataError("this patch cannot be filtered")
            return blurry(pixels, config)

        monkeypatch.setattr(preprocess, "is_blurry", failing)
        with pytest.raises(DataError, match="^this patch cannot be filtered$"):
            run_pipeline(stained_raster(1.0, ["sharp"] * 6, seed=45), tmp_path / "bag.ccfb", 1, "b", "p")
        assert next(calls) == 6  # every patch was filtered, and none twice
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_results_keep_the_order_and_the_first_failing_item_raises(self, monkeypatch, cpus):
        self.usable_cpus(monkeypatch, cpus)
        items = list(range(50))
        assert preprocess._map_patches(lambda i: i * i, items) == [i * i for i in items]

        def fn(i):
            if i in (13, 31):
                raise ValueError(f"item {i}")
            return i

        for _ in range(5):
            with pytest.raises(ValueError, match="^item 13$"):
                preprocess._map_patches(fn, items)

    def test_every_item_runs_once_under_frequent_thread_switches(self, monkeypatch):
        self.usable_cpus(monkeypatch, 8)  # more threads than this machine's cores
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                calls.clear()
                items = list(range(500))
                assert preprocess._map_patches(lambda i: calls.append(i) or -i, items) == [-i for i in items]
                assert sorted(calls) == items  # a lost or repeated claim shows here
        finally:
            sys.setswitchinterval(interval)


class TestNetpbm:
    def test_ppm_round_trip(self, tmp_path):
        pixels = noise_patch(seed=11, shape=(6, 5, 3))
        path = tmp_path / "img.ppm"
        write_ppm(pixels, path)
        loaded, channels = read_pnm(path)
        assert channels == 3
        np.testing.assert_array_equal(loaded, pixels)

    def test_pgm_round_trip(self, tmp_path):
        pixels = noise_patch(seed=12, shape=(4, 7, 1))
        path = tmp_path / "img.pgm"
        write_pgm(pixels, path)
        loaded, channels = read_pnm(path)
        assert channels == 1
        np.testing.assert_array_equal(loaded[:, :, 0], pixels[:, :, 0])

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x01\x02")
        loaded, _ = read_pnm(path)
        np.testing.assert_array_equal(loaded[:, :, 0], [[1, 2]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "img.xyz"
        path.write_bytes(b"P4\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            read_pnm(path)

    def test_pixels_writable_own_memory_and_copied_once(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(noise_patch(seed=13, shape=(512, 512, 3)), path)
        tracemalloc.start()
        try:
            loaded, _ = read_pnm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.flags.writeable and loaded.flags.owndata
        # the pixels alone: the file is never held whole
        assert peak < 1.2 * loaded.nbytes

    def test_signed_extents_are_non_numeric(self, tmp_path):
        # two negative extents multiply to a plausible pixel count; the header is refused first
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n-2 -2\n255\n" + bytes(4))
        with pytest.raises(FormatError) as err:
            read_pnm(path)
        assert str(err.value) == "non-numeric width field b'-2' (at byte offset 5)"

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(FormatError):
            read_pnm(path)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from([b"P5\n# a 3x2 slide\n3 2\n255\n" + bytes(range(40, 46)),
                            b"P6 3\t2 # P6\n255\n" + bytes(range(100, 118))]), byte_flips)
    def test_byte_flips_raise_a_typed_error_or_read_what_the_bytes_hold(self, tmp_path, data, flips):
        data = flipped(data, flips)
        path = tmp_path / "img.pnm"
        path.write_bytes(data)
        want = reference_read_pnm(data)
        try:
            pixels, channels = read_pnm(path)
        except CCANError:
            assert want is None
        else:
            assert want is not None and channels == want.shape[2]
            np.testing.assert_array_equal(pixels, want, strict=True)


class TestSidecar:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "meta.txt"
        path.write_text("# slide metadata\nmicrons_per_pixel = 0.5\nlabel=1\nbag_id = s1\npatient_id= p9\n")
        meta = read_sidecar(path)
        assert meta == {"microns_per_pixel": 0.5, "label": 1, "bag_id": "s1", "patient_id": "p9"}

    def test_missing_key(self, tmp_path):
        path = tmp_path / "meta.txt"
        path.write_text("label = 1\n")
        with pytest.raises(ConfigError):
            read_sidecar(path)

    @pytest.mark.parametrize("key, value, message", [
        ("microns_per_pixel", "abc", "microns_per_pixel = 'abc' cannot be read as float"),
        ("microns_per_pixel", "nan", "microns_per_pixel = nan must be positive and finite"),
        ("microns_per_pixel", "inf", "microns_per_pixel = inf must be positive and finite"),
        ("microns_per_pixel", "0", "microns_per_pixel = 0.0 must be positive and finite"),
        ("label", "one", "label = 'one' cannot be read as int"),
    ])
    def test_bad_value_names_path_and_key(self, tmp_path, key, value, message):
        path = tmp_path / "meta.txt"
        meta = {"microns_per_pixel": "0.5", "label": "1", "bag_id": "s1", "patient_id": "p9"}
        meta[key] = value
        path.write_text("".join(f"{k} = {v}\n" for k, v in meta.items()))
        with pytest.raises(ConfigError) as err:
            read_sidecar(path)
        assert str(err.value) == f"{path}: sidecar {message}"

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(byte_flips)
    def test_byte_flips_raise_a_typed_error_or_read_what_the_bytes_hold(self, tmp_path, flips):
        data = flipped(b"# slide\nmicrons_per_pixel = 0.5\nlabel=1\r\nbag_id = s1 # id\npatient_id= p9\n", flips)
        path = tmp_path / "meta.txt"
        path.write_bytes(data)
        want = reference_read_sidecar(data)
        try:
            assert read_sidecar(path) == want
        except CCANError:
            assert want is None
