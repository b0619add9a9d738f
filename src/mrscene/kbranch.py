"""Per-resolution CNN branches producing one local descriptor per patch.

Each image is tiled into R non-overlapping patches; every resolution group
of bands runs through its own convolutional branch, branch outputs are
concatenated per patch, and a shared fully connected fusion layer emits the
patch descriptor. All parameters are shared across patches.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .init import ParameterSet
from .tensor import Tensor


@dataclass
class ConvLayerSpec:
    kernel: int
    filters: int
    pool: bool = False


@dataclass
class BranchSpec:
    """Architecture of one branch: its conv stack and output width. A
    branch takes every band of its subset, so the band count is the
    subset's (``ModelConfig.subset_shapes``)."""

    layers: list
    fc_out: int = 128

    def validate(self):
        """Enforce the filter schedule of the paper: start at 32, double
        up then halve down, end at 64."""
        if not self.layers:
            raise ConfigError("branch needs at least one conv layer")
        filters = [l.filters for l in self.layers]
        if filters[0] != 32:
            raise ConfigError(f"first conv layer must have 32 filters, got {filters[0]}")
        if filters[-1] != 64:
            raise ConfigError(f"last conv layer must have 64 filters, got {filters[-1]}")
        climbing = True
        for prev, cur in zip(filters, filters[1:]):
            if climbing and cur == 2 * prev:
                continue
            climbing = False
            if cur * 2 != prev:
                raise ConfigError(f"filter counts must double then halve, got {filters}")

    def spatial_trace(self, h: int, w: int) -> list:
        """Spatial sizes after each layer; same-padding convs keep size,
        pooling floors by two."""
        trace = [(h, w)]
        for layer in self.layers:
            if layer.pool:
                if h < 2 or w < 2:
                    raise ConfigError(f"pooling a {h}x{w} map would reach zero size")
                h, w = h // 2, w // 2
            trace.append((h, w))
        return trace


def default_branch_specs(n_subsets: int) -> list:
    """Standard schedules: 5x5-then-3x3 with two pools for the highest
    resolution, 3x3 with one pool in between, 2x2 without pooling for the
    lowest resolution."""
    filters = (32, 64, 128, 64)
    specs = []
    last = n_subsets - 1
    for k in range(n_subsets):
        if k == 0 and last > 0:
            kernels, pools = (5, 3, 3, 3), (True, True, False, False)
        elif k == last:
            kernels, pools = (2, 2, 2, 2), (False, False, False, False)
        else:
            kernels, pools = (3, 3, 3, 3), (True, False, False, False)
        layers = [ConvLayerSpec(ks, f, p) for ks, f, p in zip(kernels, filters, pools)]
        specs.append(BranchSpec(layers))
    return specs


@dataclass
class PatchSet:
    """Row-major patches of one sample, one stacked array per subset.

    per_subset[k] has shape (R, bands_k, H_k/g, W_k/g) with patch r at
    grid cell (r // g, r % g).
    """

    per_subset: list
    grid: int

    def patch(self, r: int, k: int) -> np.ndarray:
        return self.per_subset[k][r]


def tile(arr: np.ndarray, grid: int) -> np.ndarray:
    """(B, bands, H, W) -> (R*B, bands, H/g, W/g), patch-major: rows
    [r*B, (r+1)*B) hold patch r, at grid cell (r // g, r % g), of every
    sample."""
    b, bands, h, w = arr.shape
    ph, pw = h // grid, w // grid
    return (
        arr.reshape(b, bands, grid, ph, grid, pw)
        .transpose(2, 4, 0, 1, 3, 5)
        .reshape(grid * grid * b, bands, ph, pw)
    )


def patch_grid(n_patches: int, subset_shapes) -> int:
    """The side g of the g x g patch grid: ConfigError unless ``n_patches``
    is a positive perfect square and the grid divides the H and W of every
    (bands, H, W) subset. The one grid rule."""
    grid = math.isqrt(max(n_patches, 0))
    if n_patches < 1 or grid * grid != n_patches:
        raise ConfigError(f"n_patches must be a positive perfect square, got {n_patches}")
    for k, (bands, h, w) in enumerate(subset_shapes):
        if h % grid or w % grid:
            raise ConfigError(f"subset {k} ({bands}x{h}x{w}) not divisible into {grid}x{grid} patches")
    return grid


def split_patches(subsets, n_patches: int) -> PatchSet:
    """Tile every subset of a sample into sqrt(R) x sqrt(R) patches."""
    grid = patch_grid(n_patches, [arr.shape for arr in subsets])
    return PatchSet(per_subset=[tile(arr[None], grid) for arr in subsets], grid=grid)


@dataclass
class FcParams:
    weight: Tensor
    bias: Tensor

    @classmethod
    def new(cls, params: ParameterSet, prefix: str, n_out: int, n_in: int) -> "FcParams":
        return cls(params.new(f"{prefix}.weight", (n_out, n_in)), params.new(f"{prefix}.bias", (n_out,)))


@dataclass
class BranchParams:
    conv_kernels: list = field(default_factory=list)
    conv_biases: list = field(default_factory=list)
    fc: FcParams = None


def make_branch_params(spec: BranchSpec, in_bands: int, in_h: int, in_w: int,
                       params: ParameterSet, prefix: str) -> BranchParams:
    branch = BranchParams()
    channels = in_bands
    for i, layer in enumerate(spec.layers):
        shape = (layer.filters, channels, layer.kernel, layer.kernel)
        branch.conv_kernels.append(params.new(f"{prefix}.conv{i}.kernels", shape))
        branch.conv_biases.append(params.new(f"{prefix}.conv{i}.bias", (layer.filters,)))
        channels = layer.filters
    h, w = spec.spatial_trace(in_h, in_w)[-1]
    branch.fc = FcParams.new(params, f"{prefix}.fc", spec.fc_out, channels * h * w)
    return branch


def branch_forward(x: Tensor, spec: BranchSpec, params: BranchParams) -> Tensor:
    """One branch: conv/ReLU stack with configured pooling, both fused into
    ``conv2d``, then an FC layer with ReLU.

    Accepts a stack (N, bands, h, w) or a single patch (bands, h, w), which
    runs as a stack of one and gives a 1-d output.
    """
    out = x if x.ndim == 4 else T.reshape(x, (1,) + x.shape)
    for layer, kernels, bias in zip(spec.layers, params.conv_kernels, params.conv_biases):
        out = T.conv2d(out, kernels, bias, pool=layer.pool)
    flat = T.reshape(out, x.shape[:-3] + (-1,))
    return T.relu(T.fc(flat, params.fc.weight, params.fc.bias))


def fuse_descriptors(branch_outputs, fusion: FcParams) -> Tensor:
    """Concatenate the K branch outputs of a patch and project to the
    shared descriptor width (linear, parameters shared across patches)."""
    if not branch_outputs:
        raise ShapeError("fuse_descriptors needs at least one branch output")
    joined = T.concat(list(branch_outputs), axis=-1) if len(branch_outputs) > 1 else branch_outputs[0]
    return T.fc(joined, fusion.weight, fusion.bias)
