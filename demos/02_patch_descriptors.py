"""From a multi-resolution scene to one descriptor per patch.

The image's band groups (one per ground resolution) are tiled into the
same 4x4 grid of patches; each group runs through its own conv branch,
branch outputs are concatenated per patch, and a shared fusion layer
emits the patch descriptor.
"""

import numpy as np

from mrscene.kbranch import branch_forward, default_branch_specs, fuse_descriptors, split_patches
from mrscene.model import Model, ModelConfig
from mrscene.tensor import Tensor

# Sentinel-2 style grouping by ground resolution: 10m, 20m, 60m bands.
# A branch takes every band of its group, so only the counts reach the model.
BAND_GROUPS = (
    ("B02", "B03", "B04", "B08"),
    ("B05", "B06", "B07", "B8A", "B11", "B12"),
    ("B01", "B09"),
)

rng = np.random.default_rng(1)

# archive-scale geometry: 10m bands 120x120, 20m bands 60x60, 60m bands 20x20
subsets = [
    rng.normal(size=(4, 120, 120)).astype(np.float32),
    rng.normal(size=(6, 60, 60)).astype(np.float32),
    rng.normal(size=(2, 20, 20)).astype(np.float32),
]

print("== tiling into 16 non-overlapping patches ==")
patches = split_patches(subsets, 16)
for k, tiles in enumerate(patches.per_subset):
    print(f"  group {k} ({','.join(BAND_GROUPS[k])}): {tiles.shape}")

# patch r covers grid cell (r // 4, r % 4) of every group
ph = subsets[0].shape[1] // 4
print("patch 5 is the slice at cell (1, 1):",
      np.array_equal(patches.patch(5, 0), subsets[0][:, ph : 2 * ph, ph : 2 * ph]))

print("\n== branch schedules ==")
for k, spec in enumerate(default_branch_specs(len(BAND_GROUPS))):
    layers = ", ".join(
        f"{l.kernel}x{l.kernel}({l.filters}){'+pool' if l.pool else ''}" for l in spec.layers
    )
    h0 = subsets[k].shape[1] // 4
    trace = [s[0] for s in spec.spatial_trace(h0, h0)]
    print(f"  branch {k}: {layers} -> fc({spec.fc_out}); spatial {' -> '.join(map(str, trace))}")

print("\n== one patch through all branches ==")
config = ModelConfig(n_classes=43, subset_shapes=[s.shape for s in subsets])
model = Model(config, seed=0)
outs = [
    branch_forward(Tensor(patches.patch(5, k)), spec, model.branch_params[k])
    for k, spec in enumerate(config.branches)
]
print(f"  branch outputs: {[o.shape for o in outs]} (concat width {sum(o.shape[0] for o in outs)})")
descriptor = fuse_descriptors(outs, model.fusion)
print(f"  fused local descriptor: {descriptor.shape}")
