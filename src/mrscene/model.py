"""Full network assembly and configuration."""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .attention import attention_scores, pool_descriptors
from .birnn import bidirectional_sequence, make_lstm_params
from .errors import ConfigError, ShapeError, UsageError, config_kwargs, drop_legacy, require_types, shape_triples
from .head import check_threshold, classify, posteriors
from .init import ParameterSet
from .kbranch import (
    BranchSpec,
    ConvLayerSpec,
    FcParams,
    branch_forward,
    default_branch_specs,
    fuse_descriptors,
    make_branch_params,
    patch_grid,
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
    per_position_lstm = False  # not a field: read by bench/reference.py, dropped from old echoes by from_dict

    def __post_init__(self):
        if self.branches is None:
            self.branches = default_branch_specs(len(self.subset_shapes))

    @property
    def grid(self) -> int:
        return math.isqrt(self.n_patches)

    @property
    def sequence_width(self) -> int:
        return 2 * self.hidden_width

    @property
    def sample_values(self) -> int:
        """Values in one sample, all bands of all subsets: the size
        ``tensor.run_shards`` gates on."""
        return sum(math.prod(shape) for shape in self.subset_shapes)

    def patch_shape(self, k: int) -> tuple:
        bands, h, w = self.subset_shapes[k]
        return (bands, h // self.grid, w // self.grid)

    def validate(self):
        """ConfigError unless the model can be built and run: the one check
        of a model config, from a config file, a checkpoint echo or a
        library caller; ``Model`` runs it first. The paper's architecture
        (``kbranch.check_paper_architecture``) is not part of it."""
        require_types("model", self)
        for k, spec in enumerate(self.branches):
            require_types(f"model.branches[{k}]", spec)
            for layer in spec.layers:
                require_types(f"model.branches[{k}].layers", layer)
        g = patch_grid(self.n_patches, self.subset_shapes)
        if not self.branches or len(self.branches) != len(self.subset_shapes):
            raise ConfigError(
                f"{len(self.branches)} branches for {len(self.subset_shapes)} band subsets"
            )
        check_threshold(self.threshold)
        for name in ("n_classes", "descriptor_width", "hidden_width", "attention_heads", "attention_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for k, (spec, (_, h, w)) in enumerate(zip(self.branches, self.subset_shapes)):
            if spec.fc_out < 1 or any(layer.kernel < 1 or layer.filters < 1 for layer in spec.layers):
                raise ConfigError(f"branch {k} needs positive kernels, filter counts and fc_out, got {spec}")
            spec.spatial_trace(h // g, w // g)

    def to_dict(self) -> dict:
        """JSON form; each conv layer is the list [kernel, filters, pool]."""
        payload = asdict(self)
        for branch in payload["branches"]:
            branch["layers"] = [list(layer.values()) for layer in branch["layers"]]
        return payload

    @classmethod
    def from_dict(cls, payload) -> "ModelConfig":
        # older checkpoints echo per_position_lstm as false; each LSTM direction has one weight set
        payload = drop_legacy("model", payload, "per_position_lstm", False)
        config = cls(**config_kwargs("model", cls, payload, {
            "subset_shapes": shape_triples,
            "branches": _branches_from_dict,
        }))
        # older files name each branch's bands; a branch takes every band of its subset
        shapes = config.subset_shapes
        for k, branch in enumerate(payload.get("branches") or ()):
            names = branch.get("band_indices", [])
            if "band_indices" in branch and not (isinstance(names, list) and k < len(shapes)
                                                 and len(names) == shapes[k][0]):
                raise ConfigError(f"model.branches[{k}].band_indices is a former field that may only "
                                  f"list one name per band of subset {k}, got {names!r}")
        return config


def _branches_from_dict(branches):
    """BranchSpecs from their JSON form, without the former band_indices
    (``from_dict`` checks it); None keeps the default schedules."""
    if branches is None:
        return None
    specs = []
    for b in branches:
        fields = {**b, "layers": [ConvLayerSpec(*layer) for layer in b["layers"]]}
        fields.pop("band_indices", None)
        specs.append(BranchSpec(**fields))
    return specs


@dataclass
class ForwardResult:
    scores: Tensor  # (B, C) logits
    attention: Tensor  # (B, T, R)

    @property
    def probabilities(self) -> Tensor:
        return posteriors(self.scores)


class Model:
    """Parameter container, the end-to-end forward pass and the sharded
    no-grad inference loop (``infer``) over lists of samples."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        config.validate()
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

    def infer(self, samples, batch_size: int = 32) -> ForwardResult:
        """Scores and attention of every sample, computed in fixed-size
        batches with no graph: the one inference loop. A batch of large
        samples runs as two data-parallel shards (``tensor.run_shards``)."""
        if batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {batch_size}")
        if not samples:
            raise UsageError("no samples to infer from: the sample list is empty")
        parts = []
        with T.no_grad():
            for start in range(0, len(samples), batch_size):
                batch = samples[start : start + batch_size]
                parts += T.run_shards(lambda lo, hi: self.forward_samples(batch[lo:hi]), len(batch),
                                      self.config.sample_values)
            return ForwardResult(Tensor(np.concatenate([p.scores.data for p in parts])),
                                 Tensor(np.concatenate([p.attention.data for p in parts])))

    def predict_probabilities(self, samples, batch_size: int = 32) -> np.ndarray:
        """Posterior matrix (n_samples, C) of ``infer``."""
        return self.infer(samples, batch_size).probabilities.data
