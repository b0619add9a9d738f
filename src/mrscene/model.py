"""Full network assembly and configuration."""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .attention import attention_scores, pool_descriptors
from .birnn import bidirectional_sequence, make_lstm_params
from .errors import ConfigError, ShapeError, UsageError, config_kwargs, require_types, shape_triples
from .head import classify, posteriors
from .init import ParameterSet
from .kbranch import (
    BranchSpec,
    ConvLayerSpec,
    DEFAULT_BAND_GROUPS,
    FcParams,
    branch_forward,
    default_branch_specs,
    fuse_descriptors,
    make_branch_params,
    tile,
)
from .tensor import Tensor


@dataclass
class ModelConfig:
    """Every architecture hyperparameter plus the input geometry."""

    n_classes: int
    subset_shapes: list  # (bands, H, W) per resolution group
    branches: list = None  # BranchSpec per group; default schedules if None
    n_patches: int = 16
    descriptor_width: int = 128  # patch descriptor width after fusion
    hidden_width: int = 128  # LSTM hidden units per direction
    attention_heads: int = 4
    attention_width: int = 64
    threshold: float = 0.5
    per_position_lstm: bool = False  # old checkpoints echo it; only False is valid

    def __post_init__(self):
        if self.branches is None:
            if len(self.subset_shapes) == len(DEFAULT_BAND_GROUPS):
                groups = DEFAULT_BAND_GROUPS
            else:
                groups = [tuple(f"band{k}_{i}" for i in range(s[0])) for k, s in enumerate(self.subset_shapes)]
            self.branches = default_branch_specs(groups)

    @property
    def grid(self) -> int:
        return math.isqrt(self.n_patches)

    @property
    def sequence_width(self) -> int:
        return 2 * self.hidden_width

    def patch_shape(self, k: int) -> tuple:
        bands, h, w = self.subset_shapes[k]
        return (bands, h // self.grid, w // self.grid)

    def validate(self, strict_filters: bool = True):
        require_types("model", self)
        for k, spec in enumerate(self.branches):
            require_types(f"model.branches[{k}]", spec)
            for layer in spec.layers:
                require_types(f"model.branches[{k}].layers", layer)
        if self.n_patches < 1 or self.grid ** 2 != self.n_patches:
            raise ConfigError(f"n_patches must be a positive perfect square, got {self.n_patches}")
        if not self.branches or len(self.branches) != len(self.subset_shapes):
            raise ConfigError(
                f"{len(self.branches)} branches for {len(self.subset_shapes)} band subsets"
            )
        if self.per_position_lstm:
            raise ConfigError("per_position_lstm must be false: each LSTM direction has one weight set")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        for name in ("n_classes", "descriptor_width", "hidden_width", "attention_heads", "attention_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        g = self.grid
        for k, (spec, shape) in enumerate(zip(self.branches, self.subset_shapes)):
            bands, h, w = shape
            if any(layer.kernel < 1 or layer.filters < 1 for layer in spec.layers):
                raise ConfigError(f"branch {k} needs positive kernels and filter counts, got {spec.layers}")
            if len(spec.band_indices) != bands:
                raise ConfigError(
                    f"branch {k} lists {len(spec.band_indices)} bands but subset {k} has {bands}"
                )
            if h % g or w % g:
                raise ConfigError(f"subset {k} ({h}x{w}) not divisible into {g}x{g} patches")
            if strict_filters:
                spec.validate()
            spec.spatial_trace(h // g, w // g)
        if any(l.pool for l in self.branches[-1].layers):
            raise ConfigError("the lowest-resolution branch must not pool")

    def to_dict(self) -> dict:
        """JSON form; each conv layer is the list [kernel, filters, pool]."""
        payload = asdict(self)
        for branch in payload["branches"]:
            branch["layers"] = [list(layer.values()) for layer in branch["layers"]]
        return payload

    @classmethod
    def from_dict(cls, payload) -> "ModelConfig":
        return cls(**config_kwargs("model", cls, payload, {
            "subset_shapes": shape_triples,
            "branches": _branches_from_dict,
        }))


def _branches_from_dict(branches):
    """BranchSpecs from their JSON form; None keeps the default schedules."""
    if branches is None:
        return None
    return [BranchSpec(**{**b, "band_indices": list(b["band_indices"]),
                          "layers": [ConvLayerSpec(*layer) for layer in b["layers"]]})
            for b in branches]


@dataclass
class ForwardResult:
    scores: Tensor  # (B, C) logits
    attention: Tensor  # (B, T, R)

    @property
    def probabilities(self) -> Tensor:
        return posteriors(self.scores)


class Model:
    """Parameter container plus the end-to-end forward pass."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        self.parameters = params = ParameterSet(seed, dtype)

        self.branch_params = [
            make_branch_params(spec, *config.patch_shape(k), params, f"branch{k}")
            for k, spec in enumerate(config.branches)
        ]
        total_branch_out = sum(spec.fc_out for spec in config.branches)
        self.fusion = FcParams.new(params, "fusion", config.descriptor_width, total_branch_out)
        self.lstm_fwd, self.lstm_bwd = (
            make_lstm_params(config.descriptor_width, config.hidden_width, params, prefix)
            for prefix in ("lstm.fwd", "lstm.bwd")
        )
        self.attn_hidden = params.new("attention.hidden", (config.attention_width, config.sequence_width))
        self.attn_heads = params.new("attention.heads", (config.attention_heads, config.attention_width))
        clf_in = config.sequence_width * config.attention_heads
        self.clf_weight = params.new("classifier.weight", (config.n_classes, clf_in))
        self.clf_bias = params.new("classifier.bias", (config.n_classes,))

    def zero_grad(self):
        for p in self.parameters.values():
            p.zero_grad()

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters.values())

    def forward(self, subset_arrays) -> ForwardResult:
        """Logits and attention for a batch.

        subset_arrays: one (B, bands_k, H_k, W_k) array per resolution group.
        """
        cfg = self.config
        if len(subset_arrays) != len(cfg.branches):
            raise ShapeError(f"expected {len(cfg.branches)} subsets, got {len(subset_arrays)}")
        batch = subset_arrays[0].shape[0]
        branch_outs = []
        for k, (spec, params) in enumerate(zip(cfg.branches, self.branch_params)):
            arr = np.ascontiguousarray(subset_arrays[k], dtype=self.dtype)
            if arr.shape[1:] != tuple(cfg.subset_shapes[k]):
                raise ShapeError(
                    f"subset {k} shape {arr.shape[1:]} != configured {tuple(cfg.subset_shapes[k])}"
                )
            tiles = Tensor(tile(arr, cfg.grid))
            branch_outs.append(branch_forward(tiles, spec, params))  # (R*B, fc_out)

        descriptors = fuse_descriptors(branch_outs, self.fusion)  # (R*B, d_psi), patch-major
        sequence = T.reshape(descriptors, (cfg.n_patches, batch, -1))
        enriched = bidirectional_sequence(sequence, self.lstm_fwd, self.lstm_bwd)  # (R, B, 2*hidden)
        omega = T.transpose(enriched, (1, 2, 0))  # (B, 2*hidden, R): column r is patch r
        attn = attention_scores(omega, self.attn_hidden, self.attn_heads)
        pooled = pool_descriptors(omega, attn)
        scores = classify(pooled, self.clf_weight, self.clf_bias)
        return ForwardResult(scores=scores, attention=attn)

    def forward_samples(self, samples) -> ForwardResult:
        arrays = [
            np.stack([s.subsets[k] for s in samples]) for k in range(len(self.config.subset_shapes))
        ]
        return self.forward(arrays)

    def predict_probabilities(self, samples, batch_size: int = 32) -> np.ndarray:
        """Posterior matrix (n_samples, C), computed in fixed-size batches."""
        if batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {batch_size}")
        with T.no_grad():
            return np.concatenate([
                self.forward_samples(samples[start : start + batch_size]).probabilities.data
                for start in range(0, len(samples), batch_size)
            ], axis=0)
