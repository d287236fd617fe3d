"""The cascaded cross-attention aggregator and its pooling baselines.

Stage j holds M / C^(j-1) learnable latent tokens. Each stage runs Z
repeats of [one cross-attention onto the stage context, then S
self-attention layers]; stage 1 attends to the projected input tokens,
later stages to the previous stage's output. A pooled skip connection
(mean over C consecutive tokens) carries the previous stage's output
into the current one. A per-stage class token is then appended and the
widened set runs one final cross-attention over the projected input
tokens plus one final self-attention block; the class row feeds a head
MLP shared by all stages. Stage predictions are averaged for the final
output; training sums the per-stage losses.

Each stage returns only the attention records its rollout reads, the
final cross and final self blocks'; a baseline returns none.

Bags are processed one at a time; anything batch-like happens upstream
via gradient accumulation.
"""

from __future__ import annotations

import json
import math
import reprlib
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autograd as ag
from .attention import AttentionRecord, BlockParams, cross_attention_block, fill_param, self_attention_block
from .autograd import Tensor
from .data import BinaryReader, atomic_write, seeded_rng
from .errors import ConfigError, DataError, FormatError, ShapeError
from .posenc import attach_encodings, frequency_ladder

CHECKPOINT_MAGIC = b"CCAN"
CHECKPOINT_VERSION = 6

# rows a forward that does not record encodes and projects at a time; a row block of a product has the
# whole product's bits unless it is one row (a GEMV)
PROJECTION_ROWS = 1024


def _views(flat, shapes):
    """Views of the 1-D ``flat``, end to end, one of each shape."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [flat[end - math.prod(shape):end].reshape(shape) for shape, end in zip(shapes, ends)]


class _Layout:
    """A model's parameters as it makes them: each one's name, shape and fill, and a zero-memory placeholder.

    ``named`` keeps the making order: the draw order, ``parameters()``, ``values`` and the checkpoint's.
    ``pack`` then allocates ``values`` once and makes each parameter its view, for the seed's draws or one
    read of a checkpoint to fill whole. For a load, the layout may need at most ``room`` bytes of float32
    values, the bytes its file holds from byte ``at`` on: needing more is a FormatError before any allocation.
    """

    def __init__(self, dtype, room=None, at=None):
        self.dtype, self.room, self.at = dtype, room, at
        self.named, self.shapes, self.fills, self.size = [], [], [], 0

    def param(self, name, shape, fill=None):
        """A placeholder for a tensor of ``shape`` that ``fill_param`` fills: drawn, or with ``fill`` a constant."""
        self.size += math.prod(shape)
        if self.room is not None and 4 * self.size > self.room:
            raise FormatError(f"checkpoint config needs {4 * self.size} bytes of float32 values up to parameter "
                              f"{name!r}, but {self.room} bytes follow it", offset=self.at)
        self.named.append((name, Tensor(np.zeros((), self.dtype), requires_grad=True)))
        self.shapes.append(shape)
        self.fills.append(fill)
        return self.named[-1][1]

    def block(self, prefix, d):
        return BlockParams(**{name: self.param(f"{prefix}.{name}", shape, fill)
                              for name, shape, fill in BlockParams.layout(d)})

    def pack(self, model):
        """Give ``model`` the list, and make each parameter a view of ``model.values``, one array in its order."""
        model._parameters = self.named
        try:
            model.values = np.empty(self.size, self.dtype)
        except (MemoryError, ValueError):  # ValueError: more bytes than numpy can address
            raise ConfigError(f"the model's {self.size} parameter values need {self.size * self.dtype.itemsize} "
                              "bytes, more than can be allocated") from None
        for (_, t), view in zip(self.named, _views(model.values, self.shapes)):
            t.data = view


def _check_shared(config, attention=True):
    """The width and class checks every model config shares, and with ``attention`` the latent width's."""
    if config.d_feature < 1:
        raise ConfigError(f"d_feature must be >= 1, got {config.d_feature}")
    if config.num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {config.num_classes}")
    if attention and config.d_latent < 1:
        raise ConfigError(f"d_latent must be >= 1, got {config.d_latent}")


@dataclass
class CCANConfig:
    """All architecture hyperparameters."""

    n_stages: int = 6  # J
    n_latents: int = 512  # M, first-stage latent count
    compression: int = 2  # C
    d_latent: int = 512  # D_l
    d_feature: int = 2048  # D_f
    block_repeats: int = 1  # Z
    self_layers: int = 2  # S, self-attention layers after each cross-attention
    p_dropout: float = 0.9  # input-token dropout fraction
    num_classes: int = 2
    n_frequencies: int = 6  # I
    f_max: float = 10.0
    seed: int = 0

    def validate(self):
        if self.n_stages < 1:
            raise ConfigError(f"n_stages must be >= 1, got {self.n_stages}")
        if self.compression < 1:
            raise ConfigError(f"compression must be >= 1, got {self.compression}")
        if self.n_latents < 1:
            raise ConfigError(f"n_latents must be >= 1, got {self.n_latents}")
        # stage by stage: for C >= 2 a count that does not divide comes within log2(M) + 1 stages; C = 1 divides all
        count, stage = self.n_latents, 1
        while self.compression > 1 and stage < self.n_stages:
            if count % self.compression:
                raise ConfigError(f"n_latents={self.n_latents} does not divide by compression={self.compression} "
                                  f"down to stage {stage + 1}: stage {stage} holds {count}")
            count, stage = count // self.compression, stage + 1
        if self.block_repeats < 1 or self.self_layers < 0:
            raise ConfigError(
                f"need block_repeats >= 1 and self_layers >= 0, got {self.block_repeats}, {self.self_layers}"
            )
        if not 0 <= self.p_dropout < 1:
            raise ConfigError(f"p_dropout must be in [0, 1), got {self.p_dropout}")
        _check_shared(self)
        if self.n_frequencies < 1 or not 1 <= self.f_max < np.inf:
            raise ConfigError(f"need n_frequencies >= 1 and a finite f_max >= 1, got {self.n_frequencies}, {self.f_max}")
        return self

    def latent_counts(self):
        """Each stage's latent count, first to last, one at a time."""
        count = self.n_latents
        for _ in range(self.n_stages):
            yield count
            count //= self.compression

    @property
    def out_units(self):
        # binary tasks use one sigmoid output; multiclass is one-vs-rest
        return 1 if self.num_classes == 2 else self.num_classes

    @property
    def d_encoded(self):
        return self.d_feature + 4 * self.n_frequencies


@dataclass
class StageOutput:
    """Everything one stage produces for one bag."""

    latents_out: object  # Tensor, M_j x D_l (class row removed)
    class_embedding: object  # Tensor, 1 x D_l
    probs: np.ndarray  # out_units, detached
    probs_tensor: object  # Tensor, 1 x out_units, still in the graph
    records: list  # AttentionRecord: the final cross ((M_j+1) x N), then the final self; none in a baseline


@dataclass
class ModelOutput:
    stages: list  # of StageOutput, length J
    averaged_probs: np.ndarray  # out_units
    kept_indices: np.ndarray  # indices of surviving input tokens


@dataclass
class _Stage:
    latents: Tensor
    class_token: Tensor
    cross_blocks: list
    self_blocks: list  # flat list of Z*S blocks, grouped per repeat
    final_cross: BlockParams
    final_self: BlockParams


class _Model:
    """What every model kind shares.

    A subclass names its ``kind`` and ``config_class``, and its ``_make(made)`` makes its parameters, in order,
    through ``made``.
    """

    def __init__(self, config, dtype=np.float32):
        rng = seeded_rng(config.seed)
        made = self._lay_out(config, _Layout(np.dtype(dtype)))
        for (_, t), fill in zip(self._parameters, made.fills):  # in making order: one draw at a time
            fill_param(t.data, fill, rng)

    @classmethod
    def _unfilled(cls, config, dtype, room, at):
        """The model of ``config``, no value drawn or filled, for a file with ``room`` bytes for them from ``at``."""
        model = cls.__new__(cls)
        model._lay_out(config, _Layout(np.dtype(dtype), room, at))
        return model

    def _lay_out(self, config, made):
        config.validate()
        self.config, self.dtype = config, made.dtype
        self._make(made)
        made.pack(self)
        return made

    def parameters(self):
        """(name, tensor) pairs in the order the model made them, a fixed, checkpoint-stable order."""
        return list(self._parameters)

    def zeroed_grads(self):
        """A zero gradient array laid out like ``values``, with each parameter's ``grad`` its view."""
        # np.zeros is calloc: no page is written before the backward adds into it, and fill(0) between windows
        # writes the same +0. A window's first gradient is 0 + g, not g: it differs only where g is -0.0. With
        # AdamW's beta1 0.9 > 0.5, m (from +0) never holds -0, so either zero adds the same to m, and g*g to v.
        grads = np.zeros(self.values.size, self.dtype)
        for (_, t), view in zip(self._parameters, _views(grads, [t.shape for _, t in self._parameters])):
            t.grad = view
        return grads

    def _check_bag(self, bag):
        if bag.n_tokens < 1:
            raise DataError("cannot run a forward pass on an empty bag")
        if bag.d_feature != self.config.d_feature:
            raise ShapeError(f"bag feature dim {bag.d_feature} != configured {self.config.d_feature}")


class CCANModel(_Model):
    """Config and every learnable tensor (views of one flat ``values``), drawn from ``config.seed``; see module docstring."""

    kind = "ccan"
    config_class = CCANConfig
    __init__ = _Model.__init__  # in the class body, so a tracer of the class's own methods times construction

    def _make(self, made):
        config, d = self.config, self.config.d_latent
        self.input_proj_w = made.param("input_proj.w", (config.d_encoded, d))
        self.input_proj_b = made.param("input_proj.b", (d,), fill=0.0)
        self.stages = []
        for j, count in enumerate(config.latent_counts(), start=1):
            # keyword arguments run left to right, so this is the making order
            self.stages.append(_Stage(
                latents=made.param(f"stage{j}.latents", (count, d)),
                class_token=made.param(f"stage{j}.class_token", (1, d)),
                cross_blocks=[made.block(f"stage{j}.cross{z}", d) for z in range(config.block_repeats)],
                self_blocks=[made.block(f"stage{j}.self{i}", d)
                             for i in range(config.block_repeats * config.self_layers)],
                final_cross=made.block(f"stage{j}.final_cross", d),
                final_self=made.block(f"stage{j}.final_self", d),
            ))
        self.head_w1 = made.param("head.w1", (d, d))
        self.head_b1 = made.param("head.b1", (d,), fill=0.0)
        self.head_w2 = made.param("head.w2", (d, config.out_units))
        self.head_b2 = made.param("head.b2", (config.out_units,), fill=0.0)

    @property
    def ladder(self):
        # made per forward, so never before ``values``, whose input projection bounds n_frequencies
        return frequency_ladder(self.config.n_frequencies, self.config.f_max)

    # -- forward ----------------------------------------------------------

    def _head(self, class_embedding):
        h = ag.gelu(ag.linear(class_embedding, self.head_w1, self.head_b1))
        logits = ag.linear(h, self.head_w2, self.head_b2)
        return ag.sigmoid(logits)

    def stage_forward(self, j, prev_latents, input_ctx):
        """Run stage j (1-based). ``prev_latents`` is None for stage 1."""
        cfg = self.config
        if not 1 <= j <= cfg.n_stages:
            raise ConfigError(f"stage index {j} outside 1..{cfg.n_stages}")
        stage = self.stages[j - 1]
        stage_ctx = input_ctx if j == 1 else prev_latents
        x = stage.latents
        for z in range(cfg.block_repeats):
            x = cross_attention_block(x, stage_ctx, stage.cross_blocks[z])[0]
            for s in range(cfg.self_layers):
                block = stage.self_blocks[z * cfg.self_layers + s]
                x = self_attention_block(x, block)[0]
        if j > 1:
            x = x + ag.avg_pool_rows(prev_latents, cfg.compression)  # the pooled skip
        x = ag.concat_rows([x, stage.class_token])
        x, cross = cross_attention_block(x, input_ctx, stage.final_cross)
        x, self_ = self_attention_block(x, stage.final_self)
        records = [AttentionRecord(cross), AttentionRecord(self_)]
        m = x.shape[0] - 1
        class_embedding = ag.slice_rows(x, m, m + 1)
        latents_out = ag.slice_rows(x, 0, m)
        probs_tensor = self._head(class_embedding)
        return StageOutput(
            latents_out=latents_out,
            class_embedding=class_embedding,
            probs=probs_tensor.data.reshape(-1).copy(),
            probs_tensor=probs_tensor,
            records=records,
        )

    def _input_context(self, tokens, rows, cols, grid):
        """The rows ``tokens`` at cells (``rows``, ``cols``) encoded and projected, N x D_l. A recording projection
        encodes them whole, as its weight gradient reads them; otherwise equal blocks of at most PROJECTION_ROWS
        rows are encoded and projected into one array and the bias added once, so N x D_e never exists whole."""
        w, b, ladder, n = self.input_proj_w, self.input_proj_b, self.ladder, tokens.shape[0]

        def encoded(lo, hi):
            return attach_encodings(tokens[lo:hi].astype(self.dtype, copy=False), rows[lo:hi], cols[lo:hi],
                                    *grid, ladder)

        if ag._recording((w, b)):
            return ag.linear(Tensor(encoded(0, n)), w, b)
        ctx = np.empty((n, w.shape[1]), self.dtype)
        k = -(-n // PROJECTION_ROWS)
        for i in range(k):  # bounds at n*i//k: more than one block means 512 rows or more each
            lo, hi = n * i // k, n * (i + 1) // k
            ag._matmul(encoded(lo, hi), w.data, ctx[lo:hi])
        ctx += b.data
        return Tensor(ctx)

    def forward(self, bag, rng=None, train_mode=False):
        """Full pass over one bag or dataset entry; deterministic whenever train_mode is off.

        The forward loads the bag itself and drops it once its kept rows are projected, so the raw tokens of an
        entry are freed before stage 1, whoever holds the call's arguments; a bag the caller holds stays.
        """
        cfg = self.config
        bag = bag.load()
        self._check_bag(bag)
        # dropout first: the encoding is per row, so only kept rows are encoded
        kept, kept_indices = token_dropout(bag.tokens, cfg.p_dropout, rng, train_mode)
        rows, cols, grid = bag.rows[kept_indices], bag.cols[kept_indices], (bag.rows_total, bag.cols_total)
        del bag
        ctx = self._input_context(kept, rows, cols, grid)
        del kept, rows, cols  # in eval ``kept`` is the bag's own tokens
        stages = []
        prev = None
        for j in range(1, cfg.n_stages + 1):
            so = self.stage_forward(j, prev, ctx)
            stages.append(so)
            prev = so.latents_out
        averaged = np.mean([so.probs for so in stages], axis=0)
        return ModelOutput(stages=stages, averaged_probs=averaged, kept_indices=kept_indices)


def token_dropout(tokens, p_dropout, rng, train_mode):
    """Keep a uniform subset of max(1, round(N*(1-p))) token rows.

    Evaluation mode is the identity. Surviving tokens are not rescaled.
    """
    n = tokens.shape[0]
    if not train_mode or p_dropout == 0:
        return tokens, np.arange(n)
    if rng is None:
        raise ConfigError("token_dropout in train mode needs an rng")
    keep = max(1, round(n * (1.0 - p_dropout)))
    kept_indices = np.sort(rng.choice(n, size=keep, replace=False))
    return tokens[kept_indices], kept_indices


# ---------------------------------------------------------------------------
# baseline aggregators


@dataclass
class PoolConfig:
    """A pooling baseline's config: it pools the raw D_f tokens, so width and classes are all it has."""

    d_feature: int = 2048
    num_classes: int = 2
    seed: int = 0

    def validate(self):
        _check_shared(self, attention=False)
        return self

    out_units = CCANConfig.out_units


@dataclass
class SelfAttentionConfig(PoolConfig):
    """The full-self-attention baseline's config: a pooling config's, and a width as in CCAN's."""

    d_latent: int = 512

    def validate(self):
        _check_shared(self)
        return self


class _Pooling(_Model):
    """A baseline: ``_pool`` reduces the bag's raw D_f tokens to one row, and a linear head maps it to the output."""

    config_class = PoolConfig

    def _make(self, made, width=None):
        self.head_w = made.param("head.w", (width or self.config.d_feature, self.config.out_units))
        self.head_b = made.param("head.b", (self.config.out_units,), fill=0.0)

    def forward(self, bag, rng=None, train_mode=False):
        bag = bag.load()
        self._check_bag(bag)
        pooled = self._pool(Tensor(bag.tokens.astype(self.dtype, copy=False)))
        probs_tensor = ag.sigmoid(ag.linear(pooled, self.head_w, self.head_b))
        so = StageOutput(latents_out=pooled, class_embedding=pooled, probs=probs_tensor.data.reshape(-1).copy(),
                         probs_tensor=probs_tensor, records=[])
        return ModelOutput(stages=[so], averaged_probs=so.probs.copy(), kept_indices=np.arange(bag.n_tokens))


class MeanPoolModel(_Pooling):
    kind = "mean-pool"
    _pool = staticmethod(ag.mean_rows)


class MaxPoolModel(_Pooling):
    kind = "max-pool"
    _pool = staticmethod(ag.max_rows)


class SelfAttentionModel(_Pooling):
    """The O(N^2) reference: tokens projected to D_l, one self-attention block over all N of them, then a mean."""

    kind = "full-self-attention"
    config_class = SelfAttentionConfig

    def _make(self, made):
        d = self.config.d_latent
        self.input_proj_w = made.param("input_proj.w", (self.config.d_feature, d))
        self.input_proj_b = made.param("input_proj.b", (d,), fill=0.0)
        self.block = made.block("block", d)
        super()._make(made, d)

    def _pool(self, tokens):
        x = ag.linear(tokens, self.input_proj_w, self.input_proj_b)
        return ag.mean_rows(self_attention_block(x, self.block)[0])


MODEL_KINDS = {cls.kind: cls for cls in (CCANModel, MeanPoolModel, MaxPoolModel, SelfAttentionModel)}


def make_model(kind, ccan_config, seed):
    """A ``kind`` model drawn from ``seed``; every other field of its config is the CCAN ``ccan_config``'s."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model kind must be one of {tuple(MODEL_KINDS)}, got {kind!r}")
    cls = MODEL_KINDS[kind]
    values = {f.name: getattr(ccan_config, f.name) for f in fields(cls.config_class)}
    return cls(cls.config_class(**{**values, "seed": seed}))


# ---------------------------------------------------------------------------
# checkpoints


def _layout(model):
    """Each parameter's name and extents, in ``parameters()`` order: the checkpoint's ``layout``."""
    return [[name, list(t.shape)] for name, t in model.parameters()]


def save_checkpoint(model, path):
    """Versioned binary container: header, config JSON with the layout, then ``values`` as one float32 record.

    The values are written straight from ``values`` (a float32 model's is
    not copied) through ``atomic_write``, so an interrupted save leaves the
    previous checkpoint in place.
    """
    payload = json.dumps({"model_kind": model.kind, "config": asdict(model.config), "layout": _layout(model)},
                         sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(payload)) + payload)
        fh.write(np.asarray(model.values, "<f4").data)


def _config_from_json(cls, values, offset):
    """Build a config dataclass from checkpoint JSON: every field, typed like its default."""
    if not isinstance(values, dict):
        raise FormatError("checkpoint 'config' is not a JSON object", offset=offset)
    defaults = {f.name: f.default for f in fields(cls)}
    unknown, missing = sorted(set(values) - set(defaults)), sorted(set(defaults) - set(values))
    if unknown or missing:
        raise FormatError(f"checkpoint config has unknown keys {unknown} and missing keys {missing}", offset=offset)
    for name, value in values.items():
        want = type(defaults[name])
        numeric = want is float and isinstance(value, int) and not isinstance(value, bool)
        if type(value) is not want and not numeric:
            raise FormatError(f"checkpoint config {name!r} is {value!r}, expected {want.__name__}", offset=offset)
    return cls(**values)


def load_checkpoint(path, dtype=np.float32):
    with open(path, "rb") as fh:
        return _read_checkpoint(BinaryReader(fh), dtype)


def _read_checkpoint(r, dtype):
    if r.take(4, "magic") != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic", offset=0)
    (version,) = r.unpack("<H", "version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    (payload_len,) = r.unpack("<I", "config length")
    start = r.offset
    text = r.text(payload_len, "checkpoint config")
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past int()'s digit limit, or nesting past the stack
        at = start + len(text[: getattr(exc, "pos", 0)].encode("utf-8"))
        raise FormatError(f"checkpoint config is not valid JSON: {getattr(exc, 'msg', exc)}", offset=at) from None
    if not isinstance(payload, dict) or set(payload) != {"model_kind", "config", "layout"}:
        raise FormatError("checkpoint config must hold exactly 'model_kind', 'config' and 'layout'", offset=start)
    kind = payload["model_kind"]
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise FormatError(f"unknown model_kind {kind!r} in checkpoint config", offset=start)
    cls = MODEL_KINDS[kind]
    config = _config_from_json(cls.config_class, payload["config"], start)
    if config.seed < 0:  # the config could not draw its initial weights again
        raise FormatError(f"checkpoint config 'seed' is {config.seed}, expected >= 0", offset=start)
    # the file writes every value, so the layout is made without drawing or filling any
    model = cls._unfilled(config, dtype, room=r.size - r.offset, at=r.offset)
    listed, want = payload["layout"], _layout(model)
    if listed != want:  # name the first entry that differs, or the first one missing or extra
        listed = listed if isinstance(listed, list) else [listed]
        i = next((i for i, (a, b) in enumerate(zip(listed, want)) if a != b), min(len(listed), len(want)))
        found = reprlib.repr(listed[i]) if i < len(listed) else "nothing"
        raise FormatError(f"checkpoint layout has {found} at entry {i}, where "
                          f"{want[i] if i < len(want) else 'nothing'} belongs", offset=start)
    if model.values.dtype == np.dtype("<f4"):
        r.readinto(model.values, "parameter values")
    else:
        model.values[...] = r.array(model.values.shape, "<f4", "parameter values")
    if r.offset != r.size:
        raise FormatError("trailing bytes after parameters", offset=r.offset)
    return model
