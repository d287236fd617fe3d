"""Raster-image preprocessing into feature bags.

The pipeline tessellates a calibrated image into non-overlapping square
patches with a fixed physical edge length (default 256 microns),
resizes each to 256x256 px, drops predominantly-white patches (mean
BT.601 luma > 224), drops blurry patches (Canny edge fraction < 2%),
and turns survivors into feature tokens via a deterministic random
projection. Partial edge patches are discarded. Each patch's luma is
computed once and read by both filters; the projection is drawn once
per (d_feature, seed) as 128-column slabs, cached and shared read-only.
Patches are resized (8-bit ones at whole scale factors by integer means,
the float path's bytes) and filtered on every usable CPU, with the same
bag bytes at any CPU count; the projection runs on the calling thread.

The Canny detector is the classic pipeline: 5x5 Gaussian smoothing
(sigma 1.4), Sobel gradients, 4-direction non-maximum suppression, and
double-threshold hysteresis (low 50 / high 100 on the gradient
magnitude clamped to 8 bits). Borders are edge-replicated for the
convolutions; the Gaussian is made once per sigma, and at either end of
the accepted range it is its limit (uniform, or a unit impulse). Golden
tests and oracles pin every bit: the Sobel taps are slices summed in
ndimage.correlate's order, the angle folds into % 180's sector by adding
180 to negative angles, and block means come from integer sums.

The blur filter stops at the first exact bound on the edge count that
decides its verdict: the magnitudes not below the low threshold (upper),
then, 32 suppressed rows at a time, the pixels both strong and weak
(lower), then the weak pixels (upper). Hysteresis labelling runs only when
none decides; canny_edges runs the same stages to the end.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .data import FeatureBag, _encode_identity, atomic_write, read_key_values, seeded_rng, write_bag
from .errors import ConfigError, DataError


@dataclass
class RasterImage:
    """8-bit image with a physical pixel size."""

    pixels: np.ndarray  # HxWxC uint8, C in {1, 3}
    microns_per_pixel: float

    def __post_init__(self):
        raw = np.asarray(self.pixels)
        if raw.dtype != np.uint8:  # a cast would wrap 256 to 0 and -1 to 255, and truncate 300.7 to 44
            numeric = raw.dtype.kind in "biuf"  # NaN fails every comparison below
            fits = (np.floor(raw) == raw) & (raw >= 0) & (raw <= 255) if numeric else np.zeros(raw.shape, bool)
            if not fits.all():
                raise DataError(f"pixel value {raw[~fits].flat[0]} is not an integer in 0..255")
        self.pixels = np.asarray(raw, dtype=np.uint8)
        if self.pixels.ndim == 2:
            self.pixels = self.pixels[:, :, None]
        if self.pixels.ndim != 3 or self.pixels.shape[2] not in (1, 3):
            raise DataError(f"expected HxWx{{1,3}} pixels, got shape {self.pixels.shape}")
        if not 0 < self.microns_per_pixel < float("inf"):
            raise DataError(f"microns_per_pixel must be positive and finite, got {self.microns_per_pixel}")

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]


@dataclass
class PatchRecord:
    """One tessellated patch, resized to the model's input resolution."""

    pixels: np.ndarray  # 256x256x3 uint8
    row: int
    col: int


# every patch is resized to this edge length, the stub extractor's input
PATCH_PIXELS = 256
# a 768 x 128 float64 slab (786 KB) stays in L2 across a raster's patches, and its GEMV is below OpenBLAS's
# threading cutoff: no BLAS worker wakes, so none spins on into the next raster's filters
_SLAB_COLUMNS = 128


@dataclass
class PreprocessConfig:
    patch_microns: float = 256.0
    white_threshold: float = 224.0
    blur_fraction: float = 0.02
    canny_sigma: float = 1.4
    canny_low: float = 50.0
    canny_high: float = 100.0
    d_feature: int = 2048

    def validate(self):
        if not 0 < self.patch_microns < math.inf:
            raise ConfigError(f"patch_microns must be positive and finite, got {self.patch_microns}")
        if not 0 < self.canny_sigma < math.inf:
            raise ConfigError(f"canny_sigma must be positive and finite, got {self.canny_sigma}")
        # a NaN or infinite threshold compares the same everywhere, which silently turns its filter off
        for name in ("white_threshold", "blur_fraction", "canny_low", "canny_high"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be {'a number' if math.isnan(value) else 'finite'}, got {value}")
        if self.d_feature < 1:
            raise ConfigError(f"d_feature must be >= 1, got {self.d_feature}")
        return self


@dataclass
class QCReport:
    total: int
    white_rejected: int
    blur_rejected: int
    kept: int

    def write_csv(self, path):
        with atomic_write(path, text=True) as fh:
            fh.write("total,white_rejected,blur_rejected,kept\n")
            fh.write(f"{self.total},{self.white_rejected},{self.blur_rejected},{self.kept}\n")


# ---------------------------------------------------------------------------
# resizing and tessellation


def bilinear_resize(pixels, out_h, out_w):
    """Half-pixel-center bilinear resize; exact copy at identity scale.

    8-bit pixels at a whole factor k >= 1 per axis take integer arithmetic with the float path's bytes. On such an
    axis coords = (j + 0.5) * k - 0.5 is exact. Its fraction is 0 for odd k (weights 1.0 and 0.0: sample
    k*j + (k-1)/2) and 0.5 for even k (weights 0.5 on samples k*j + k/2 - 1 and k*j + k/2). Every product and
    sum is then a multiple of 1/4 below 256, so exact, and np.rint rounds half to even the exact mean of 1, 2
    or 4 samples. Counting an odd axis's one sample twice, each output is the mean of 2^a = 4 samples, and with
    their uint16 sum s that rounding is (s + 2^(a-1) - 1 + ((s >> a) & 1)) >> a: the parity of s >> a breaks ties.
    """
    pixels = np.asarray(pixels)
    in_h, in_w = pixels.shape[:2]
    k_h, k_w = in_h // out_h, in_w // out_w
    if pixels.dtype == np.uint8 and min(k_h, k_w) > 0 and (k_h * out_h, k_w * out_w) == (in_h, in_w):
        out = np.empty((out_h, out_w, pixels.shape[2]), dtype=np.uint8)
        for lo in range(0, out_h, 32):  # 32 output rows at a time keep the uint16 sums small
            rows = pixels[lo * k_h : (lo + 32) * k_h]
            s = np.add(rows[(k_h - 1) // 2 :: k_h], rows[k_h // 2 :: k_h], dtype=np.uint16)
            s = s[:, (k_w - 1) // 2 :: k_w] + s[:, k_w // 2 :: k_w]
            s += ((s >> 2) & 1) + 1
            np.right_shift(s, 2, out=out[lo : lo + 32], casting="unsafe")
        return out

    def axis_coords(out_n, in_n):
        coords = (np.arange(out_n) + 0.5) * (in_n / out_n) - 0.5
        lo = np.floor(coords).astype(np.int64)
        frac = coords - lo
        lo0 = np.clip(lo, 0, in_n - 1)
        lo1 = np.clip(lo + 1, 0, in_n - 1)
        return lo0, lo1, frac

    y0, y1, fy = axis_coords(out_h, in_h)
    x0, x1, fx = axis_coords(out_w, in_w)
    # gather 8-bit samples, rows then columns; each product casts them to float64
    # exactly, and the (row, column x channel) layout keeps every loop long
    channels = pixels.shape[2]
    wx0, wx1 = np.repeat(1 - fx, channels), np.repeat(fx, channels)
    out = np.empty((out_h, out_w * channels), dtype=np.uint8)
    # a block of rows at a time keeps the float64 rows small; each element takes the same operations
    for lo in range(0, out_h, 16):
        block = slice(lo, lo + 16)
        rows0, rows1 = pixels[y0[block]], pixels[y1[block]]
        n = len(rows0)
        top = rows0.take(x0, axis=1).reshape(n, -1) * wx0
        top += rows0.take(x1, axis=1).reshape(n, -1) * wx1
        bot = rows1.take(x0, axis=1).reshape(n, -1) * wx0
        bot += rows1.take(x1, axis=1).reshape(n, -1) * wx1
        top *= (1 - fy[block])[:, None]
        bot *= fy[block][:, None]
        top += bot
        np.rint(top, out=top)
        out[block] = np.clip(top, 0, 255, out=top)
    return out.reshape(out_h, out_w, channels)


def tessellate(image, config=None):
    """Cut the image into full square patches of patch_microns edge length."""
    config = config or PreprocessConfig()
    side = config.patch_microns / image.microns_per_pixel
    if not 0.5 < side < math.inf:  # round() would give 0 px, or fail on inf or nan
        raise DataError(f"patch side {side} px ({config.patch_microns} microns at {image.microns_per_pixel} "
                        "microns/px) must be finite and round to at least 1 px")
    side = round(side)
    n_rows = image.height // side
    n_cols = image.width // side
    if n_rows < 1 or n_cols < 1:
        raise DataError(
            f"image {image.width}x{image.height} px is smaller than one {side} px patch"
        )
    pixels = image.pixels
    if pixels.shape[2] == 1:
        pixels = np.repeat(pixels, 3, axis=2)
    cells = [(r, c) for r in range(n_rows) for c in range(n_cols)]
    crops = [pixels[r * side : (r + 1) * side, c * side : (c + 1) * side] for r, c in cells]
    if side != PATCH_PIXELS:
        crops = _map_patches(functools.partial(bilinear_resize, out_h=PATCH_PIXELS, out_w=PATCH_PIXELS), crops)
    return [PatchRecord(pixels=crop, row=r, col=c) for crop, (r, c) in zip(crops, cells)]


def _map_patches(fn, items):
    """``list(map(fn, items))`` on the calling thread and a thread per further usable CPU, at most one per item.

    Each thread takes the next untaken item; a failure raises the first failing item's exception. Callers map
    BLAS-free work, so no thread waits on OpenBLAS's spinning workers; the calling thread works too, so one
    thread fewer holds a malloc arena; the pool is joined, so a forked sweep worker inherits no thread.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(items))
    if workers < 2:
        return list(map(fn, items))
    results, errors = [None] * len(items), {}
    claims = itertools.count()  # next() on it is atomic, so each item goes to exactly one thread

    def drain():
        while (i := next(claims)) < len(items):
            try:
                results[i] = fn(items[i])
            except Exception as err:  # the rest still run, so which error is raised does not depend on timing
                errors[i] = err

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = pool.map(lambda _: drain(), range(workers - 1))  # submitted here, awaited below
        drain()
        list(helpers)
    if errors:
        raise errors[min(errors)]
    return results


# ---------------------------------------------------------------------------
# filters


def grayscale(patch_pixels):
    """BT.601 luma in float64."""
    p = np.asarray(patch_pixels)
    if p.ndim == 3 and p.shape[2] == 3:  # each product casts a uint8 channel to float64 exactly: no float64 copy
        c = p if p.dtype == np.uint8 else np.asarray(p, dtype=np.float64)
        return 0.299 * c[:, :, 0] + 0.587 * c[:, :, 1] + 0.114 * c[:, :, 2]
    return np.asarray(p, dtype=np.float64).reshape(p.shape[0], p.shape[1])


def is_white(patch_pixels, threshold=224.0):
    """True iff the mean grayscale value strictly exceeds the threshold."""
    return bool(grayscale(patch_pixels).mean() > threshold)


@functools.lru_cache(maxsize=1)
def _gaussian_kernel(sigma):
    """The 5x5 Gaussian, normalized to sum 1, made once per sigma and shared read-only.

    Where 2 sigma^2 overflows, the kernel is the uniform limit (each tap's exponent is -0); where it underflows to 0,
    the unit-impulse limit (1/ulp(0) overflows to inf, whose exp is 0). Every other sigma keeps its bits."""
    ax = np.arange(5) - 2.0
    try:
        spread = max(2.0 * sigma**2, math.ulp(0.0))
    except OverflowError:
        spread = math.inf
    with np.errstate(over="ignore"):
        g = np.exp(-(ax**2) / spread)
    kernel = np.outer(g, g)
    kernel /= kernel.sum()
    kernel.setflags(write=False)
    return kernel


_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
_SOBEL_Y = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.float64)


def _sobel_gradients(smoothed):
    """Sobel x and y with the edge pixels repeated, bit for bit as ndimage.correlate sums them:
    each kernel's nonzero taps in row-major order onto 0.0, here as slices of one padded copy."""
    h, w = smoothed.shape
    padded = np.pad(smoothed, 1, mode="edge")
    scaled = {1: padded, 2: padded * 2.0}  # doubling is exact
    gradients = [np.zeros((h, w)), np.zeros((h, w))]
    for g, kernel in zip(gradients, (_SOBEL_X, _SOBEL_Y)):
        for (dy, dx), weight in np.ndenumerate(kernel):
            if weight:  # subtracting a tap equals adding its negation
                (np.add if weight > 0 else np.subtract)(g, scaled[abs(weight)][dy : dy + h, dx : dx + w], out=g)
    return gradients


def _sectors(angle):
    """Each arctan2 angle's sector, the edges at or below angle % 180.0: 0 E/W, 1 SW/NE, 2 S/N, 3 SE/NW, 4 E/W.

    On [-180, 180] that remainder adds 180 to a negative angle, rounded the same, and keeps any other angle
    but 180, which it maps to 0; here 180 stays and counts 4 edges, so both give E/W."""
    angle += (angle < 0) * 180.0
    return sum((angle >= edge).view(np.uint8) for edge in (22.5, 67.5, 112.5, 157.5)) & 3


def _canny_bounds(patch_pixels, config):
    """Canny in stages, yielding after each the (lower, upper) bounds it gives on the edge fraction, and the mask
    after the last (else None). An edge is a weak pixel whose component holds a strong one, so a pixel both strong
    and weak is an edge, and an edge is weak: its clamped magnitude is not below canny_low, or NaN, or a suppressed
    zero that is weak. Counts below 2^53 over the one size keep their order, so each bound is exact against a cutoff."""
    # correlation, not convolution; past the border the edge pixels repeat
    smoothed = ndimage.correlate(grayscale(patch_pixels), _gaussian_kernel(config.canny_sigma), mode="nearest")
    gx, gy = _sobel_gradients(smoothed)
    m = np.hypot(gx, gy)
    h, size = m.shape[0], m.size
    upper = float(size - np.count_nonzero(np.clip(m, 0.0, 255.0) < config.canny_low)) / size
    yield 0.0, upper, None

    # non-maximum suppression against the two neighbors along the gradient, 32 interior rows at a time (the border
    # is suppressed); a NaN neighbor gives a NaN maximum, which fails the comparison as it would. The thresholds
    # are defined on the magnitude clamped to 8 bits, so a suppressed pixel is weak or strong iff 0.0 is
    weak, strong = np.full(m.shape, 0.0 >= config.canny_low), np.full(m.shape, 0.0 >= config.canny_high)
    both = 0
    for top in range(1, h - 1, 32):
        above, rows, below = (slice(top + d, min(top + 32, h - 1) + d) for d in (-1, 0, 1))
        sector = _sectors(np.degrees(np.arctan2(gy[rows, 1:-1], gx[rows, 1:-1])))
        centre = m[rows, 1:-1]
        neighbors = ((m[rows, 2:], m[rows, :-2]), (m[below, :-2], m[above, 2:]),
                     (m[below, 1:-1], m[above, 1:-1]), (m[below, 2:], m[above, :-2]))
        keep = np.zeros(sector.shape, dtype=bool)
        for s, (a, b) in enumerate(neighbors):
            keep |= (sector == s) & (centre >= np.maximum(a, b))
        suppressed = np.clip(np.where(keep, centre, 0.0), 0.0, 255.0)
        weak[rows, 1:-1], strong[rows, 1:-1] = suppressed >= config.canny_low, suppressed >= config.canny_high
        both += np.count_nonzero(weak[rows] & strong[rows])
        yield float(both) / size, upper, None
    yield float(both) / size, float(np.count_nonzero(weak)) / size, None

    # hysteresis: keep weak components 8-connected to a strong pixel
    labels, n_labels = ndimage.label(weak, structure=np.ones((3, 3), dtype=np.int64))
    has_strong = np.zeros(n_labels + 1, dtype=bool)
    has_strong[labels[strong]] = True
    has_strong[0] = False
    edges = has_strong[labels]
    fraction = float(edges.sum()) / size
    yield fraction, fraction, edges


def canny_edges(patch_pixels, config=None):
    """Boolean edge mask from the classic Canny pipeline."""
    *_, (_, _, edges) = _canny_bounds(patch_pixels, config or PreprocessConfig())
    return edges


def is_blurry(patch_pixels, config=None):
    """True iff the edge-pixel fraction is strictly below the cutoff, from the first of Canny's bounds that decides."""
    config = config or PreprocessConfig()
    for lower, upper, _ in _canny_bounds(patch_pixels, config):
        if upper < config.blur_fraction:
            return True
        if not lower < config.blur_fraction:
            return False


# ---------------------------------------------------------------------------
# stub feature extraction


@functools.lru_cache(maxsize=1)
def _projection_slabs(d_feature, seed):
    """The seed's (768, d_feature) projection as read-only C-contiguous slabs of _SLAB_COLUMNS columns (the last
    may be narrower), drawn once and shared. Rows come 64 at a time with one draw's bits; no full copy is held."""
    rng = seeded_rng(seed)
    starts = range(0, d_feature, _SLAB_COLUMNS)
    slabs = [np.empty((768, min(_SLAB_COLUMNS, d_feature - c))) for c in starts]
    for r in range(0, 768, 64):
        rows = rng.standard_normal((64, d_feature))
        rows /= np.sqrt(768.0)
        for c, slab in zip(starts, slabs):
            slab[r : r + 64] = rows[:, c : c + _SLAB_COLUMNS]
    for slab in slabs:
        slab.setflags(write=False)
    return slabs


def stub_features(patches, d_feature=2048, seed=0):
    """Deterministic stand-in for a pretrained extractor: a k x d_feature float32 array for k patches.

    Block-averages each patch to 16x16x3, flattens, applies a fixed seeded random projection, and squashes
    with tanh, so outputs are bounded in (-1, 1) and identical patches map to identical tokens. The projection
    runs slab by slab on the calling thread; a slab's GEMV keeps each output's sum order, so a token's bits do
    not depend on the other patches.
    """
    flats = np.empty((len(patches), 768))
    block = PATCH_PIXELS // 16
    for flat, patch in zip(flats, patches):
        p = np.asarray(patch)
        if p.shape != (PATCH_PIXELS, PATCH_PIXELS, 3):
            raise DataError(f"stub extractor expects {PATCH_PIXELS}x{PATCH_PIXELS}x3 patches, got {p.shape}")
        if p.dtype != np.uint8:  # any wider value could wrap in the integer sums below
            raise DataError(f"stub extractor expects 8-bit pixels, got {p.dtype}")
        # exact block sums, so the means equal mean() of a float64 copy; 8-bit values add in uint16, then uint32
        sums = p.reshape(16, block, 16, block, 3).sum(axis=1, dtype=np.uint16).sum(axis=2, dtype=np.uint32)
        flat[:] = (sums / block**2 / 255.0).reshape(-1)
    out = np.empty((len(flats), d_feature))
    for c, slab in zip(range(0, d_feature, _SLAB_COLUMNS), _projection_slabs(d_feature, seed)):
        for flat, row in zip(flats, out):  # slab-outer: each slab is read from L2 by every patch
            np.matmul(flat, slab, out=row[c : c + slab.shape[1]])
    return np.tanh(out, out=out).astype(np.float32)


# ---------------------------------------------------------------------------
# pipeline


def run_pipeline(image, out_path, label, bag_id, patient_id, seed=0, config=None):
    """Tessellate, filter, extract features, and write a CCFB bag.

    Returns (bag, qc_report). A patch rejected by the white filter is
    not double-counted by the blur filter; a patch is kept iff it is
    neither white nor blurry.
    """
    config = (config or PreprocessConfig()).validate()
    _encode_identity(label, bag_id, patient_id)  # a label or id write_bag refuses fails before any patch is cut
    patches = tessellate(image, config)

    def verdict(patch):
        gray = grayscale(patch.pixels)  # both filters read the same luma
        return "white" if is_white(gray, config.white_threshold) else "blurry" if is_blurry(gray, config) else "kept"

    verdicts = _map_patches(verdict, patches)
    kept = [patch for patch, v in zip(patches, verdicts) if v == "kept"]
    n_white, n_blur = verdicts.count("white"), verdicts.count("blurry")
    qc = QCReport(total=len(patches), white_rejected=n_white, blur_rejected=n_blur, kept=len(kept))
    if not kept:
        raise DataError(
            f"no patches survived filtering ({n_white} white, {n_blur} blurry of {len(patches)})"
        )
    tokens = stub_features([p.pixels for p in kept], config.d_feature, seed)
    n_rows = max(p.row for p in patches) + 1
    n_cols = max(p.col for p in patches) + 1
    bag = FeatureBag(
        bag_id=bag_id,
        patient_id=patient_id,
        label=label,
        tokens=tokens,
        rows=np.array([p.row for p in kept]),
        cols=np.array([p.col for p in kept]),
        rows_total=n_rows,
        cols_total=n_cols,
    )
    write_bag(bag, out_path)
    return bag, qc


def read_sidecar(path):
    """key=value metadata file: microns_per_pixel, label, bag_id, patient_id."""
    meta = read_key_values(path)
    missing = {"microns_per_pixel", "label", "bag_id", "patient_id"} - meta.keys()
    if missing:
        raise ConfigError(f"{path}: sidecar missing keys: {sorted(missing)}")
    mpp = _sidecar_value(meta, "microns_per_pixel", float, path)
    if not 0 < mpp < float("inf"):
        raise ConfigError(f"{path}: sidecar microns_per_pixel = {mpp} must be positive and finite")
    return {
        "microns_per_pixel": mpp,
        "label": _sidecar_value(meta, "label", int, path),
        "bag_id": meta["bag_id"],
        "patient_id": meta["patient_id"],
    }


def _sidecar_value(meta, key, kind, path):
    try:
        return kind(meta[key])
    except ValueError:
        raise ConfigError(f"{path}: sidecar {key} = {meta[key]!r} cannot be read as {kind.__name__}") from None
