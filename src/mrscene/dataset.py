"""Sample storage, manifests, and the deterministic synthetic generator.

Binary sample layout (all integers and floats little-endian):

    magic "MRS1" | version u16 | K u16
    per subset:  band_count u32, H u32, W u32, band*H*W float32
                 (band-major, then row-major)
    labels:      C u32, C bytes of {0,1}

The synthetic generator stands in for a large multi-resolution archive:
each class owns a per-band spectral signature and a footprint measured in
cells of a 4x4 patch grid; every image paints 1..4 non-overlapping class
regions aligned to that grid into all K resolutions, then adds Gaussian
noise. Identical (seed, parameters) produce byte-identical output.
"""

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .checkpoint import replacing
from .errors import (
    BinaryReader,
    ConfigError,
    FormatError,
    ManifestMismatchError,
    UsageError,
    config_kwargs,
    json_object,
    require_types,
    shape_triples,
)

MAGIC = b"MRS1"
FORMAT_VERSION = 1

# regions are aligned to this many cells per image side (16 patches)
GRID = 4

SPLIT_NAMES = ("train", "val", "test")


@dataclass
class Sample:
    """One scene: K resolution-grouped band stacks plus a binary label vector."""

    subsets: list
    labels: np.ndarray
    id: str


@dataclass
class SyntheticProfile:
    name: str
    subset_shapes: list  # (bands, H, W) per resolution group
    default_classes: int
    max_classes: int


PROFILES = {
    "tiny": SyntheticProfile("tiny", [(4, 24, 24), (6, 12, 12), (2, 4, 4)], 8, 16),
    "bigearthnet-shaped": SyntheticProfile(
        "bigearthnet-shaped", [(4, 120, 120), (6, 60, 60), (2, 20, 20)], 43, 43
    ),
}


@dataclass
class DatasetManifest:
    subset_shapes: list  # (bands, H, W) per resolution group
    n_classes: int
    class_names: list
    splits: dict  # split name -> sample ids
    seed: int = 0
    noise: float = 0.0
    profile: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, raw) -> "DatasetManifest":
        payload = json_object(raw, "manifest")
        fields = {key: value for key, value in payload.items() if key != "n_subsets"}
        manifest = cls(**config_kwargs("manifest", cls, fields, {"subset_shapes": shape_triples}, FormatError))
        require_types("manifest", manifest, FormatError)
        # older writers stored n_subsets; nothing reads it, but it must not contradict subset_shapes
        n_subsets = len(manifest.subset_shapes)
        if payload.get("n_subsets", n_subsets) != n_subsets:
            raise FormatError(f"manifest field n_subsets = {payload['n_subsets']!r} does not match "
                              f"the {n_subsets} subset_shapes")
        names, splits = manifest.class_names, manifest.splits
        if not _strings(names) or len(names) != manifest.n_classes:
            raise FormatError(f"manifest field class_names must list n_classes strings, got {names!r}")
        if not (isinstance(splits, dict) and all(_strings(ids) for ids in splits.values())):
            raise FormatError(f"manifest field splits must map split names to lists of ids, got {splits!r}")
        return manifest

    def save(self, path):
        with replacing(path) as f:
            f.write(self.to_json().encode("utf-8"))

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        return cls.from_json(Path(path).read_bytes())


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def write_sample(path, sample: Sample):
    """Build the small MRS1 file (12.8 KB for ``tiny``) in memory and write it
    once, through ``replacing``: streaming its fields made
    ``generate_synthetic`` of 320 ``tiny`` samples up to 12% slower on 2
    vCPUs, which ``setup_s`` would show."""
    parts = [MAGIC, struct.pack("<HH", FORMAT_VERSION, len(sample.subsets))]
    for arr in sample.subsets:
        bands, h, w = arr.shape
        parts += [struct.pack("<III", bands, h, w), np.ascontiguousarray(arr, dtype="<f4").tobytes()]
    labels = np.asarray(sample.labels, dtype=np.uint8)
    parts += [struct.pack("<I", labels.size), labels.tobytes()]
    with replacing(path) as f:
        f.write(b"".join(parts))


def read_sample(path, manifest: DatasetManifest = None) -> Sample:
    """Read one MRS1 file; optionally validate shapes against a manifest."""
    with BinaryReader(path, MAGIC, FORMAT_VERSION) as reader:
        (n_subsets,) = reader.unpack("<H", "subset count")
        subsets = [reader.array("<f4", reader.unpack("<III", f"subset {k} header"), f"subset {k} data")
                   for k in range(n_subsets)]
        (n_classes,) = reader.unpack("<I", "label header")
        labels = reader.array(np.uint8, (n_classes,), "labels")
        reader.end("labels")
    if labels.size and labels.max() > 1:
        raise FormatError(f"{path}: labels must be 0/1 bytes")
    sample = Sample(subsets=subsets, labels=labels, id=Path(path).stem)
    if manifest is not None:
        _check_against_manifest(sample, manifest, path)
    return sample


def _check_against_manifest(sample: Sample, manifest: DatasetManifest, path):
    shapes = [s.shape for s in sample.subsets]
    expected = [tuple(s) for s in manifest.subset_shapes]
    if shapes != expected:
        raise ManifestMismatchError(f"{path}: subset shapes {shapes} != manifest {expected}")
    if sample.labels.size != manifest.n_classes:
        raise ManifestMismatchError(
            f"{path}: {sample.labels.size} labels != manifest n_classes {manifest.n_classes}"
        )
    if sample.labels.sum() < 1:
        raise ManifestMismatchError(f"{path}: a valid sample carries at least one positive label")


def split_counts(n: int, fractions=(0.6, 0.2, 0.2)) -> tuple:
    """Floor each split, then hand leftovers to the largest fractional parts
    (ties resolved in train, val, test order). 64 samples -> 38/13/13."""
    quotas = [n * f for f in fractions]
    counts = [int(q) for q in quotas]
    leftovers = n - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in range(leftovers):
        counts[order[i % len(counts)]] += 1
    return tuple(counts)


# The largest pixel noise sigma: a pixel is a class signature (|s| <= 1) plus
# sigma times a standard normal draw, and numpy's ziggurat draws, from 53-bit
# uniforms, lie within 14 sigmas, so 16 sigmas stay below float32's maximum.
MAX_NOISE = float(np.finfo(np.float32).max) / 16


def class_signatures(rng: np.random.Generator, n_classes: int, n_bands: int) -> np.ndarray:
    """Per-class per-band means, kept away from the zero background."""
    magnitude = rng.uniform(0.3, 1.0, size=(n_classes, n_bands))
    sign = rng.choice([-1.0, 1.0], size=(n_classes, n_bands))
    return magnitude * sign


def _render_sample(rng, profile: SyntheticProfile, signatures, footprints, n_classes, noise):
    n_regions = int(rng.integers(1, 5))
    classes = rng.choice(n_classes, size=min(n_regions, n_classes), replace=False)
    occupied = np.zeros((GRID, GRID), dtype=bool)
    placed = []  # (class, row0, col0, rows, cols) in grid cells
    for c in classes:
        fh, fw = footprints[c]
        for _ in range(8):
            r0 = int(rng.integers(0, GRID - fh + 1))
            c0 = int(rng.integers(0, GRID - fw + 1))
            if not occupied[r0 : r0 + fh, c0 : c0 + fw].any():
                occupied[r0 : r0 + fh, c0 : c0 + fw] = True
                placed.append((int(c), r0, c0, fh, fw))
                break
    subsets = []
    band_offset = 0
    for bands, h, w in profile.subset_shapes:
        arr = np.zeros((bands, h, w), dtype=np.float32)
        ch, cw = h // GRID, w // GRID
        for c, r0, c0, fh, fw in placed:
            sig = signatures[c, band_offset : band_offset + bands]
            arr[:, r0 * ch : (r0 + fh) * ch, c0 * cw : (c0 + fw) * cw] = sig[:, None, None]
        if noise > 0:
            arr += rng.normal(0.0, noise, size=arr.shape).astype(np.float32)
        subsets.append(arr)
        band_offset += bands
    labels = np.zeros(n_classes, dtype=np.uint8)
    for c, *_ in placed:
        labels[c] = 1
    return subsets, labels


def generate_synthetic(
    out_dir,
    seed: int,
    n_samples: int,
    profile: str = "tiny",
    noise: float = 0.1,
    n_classes: int = None,
    split_fractions=(0.6, 0.2, 0.2),
) -> DatasetManifest:
    """Write a synthetic dataset (samples + manifest.json) under out_dir."""
    if n_samples < 1:
        raise UsageError(f"n_samples must be >= 1, got {n_samples}")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    if not 0 <= noise <= MAX_NOISE:  # NaN fails too
        raise UsageError(f"noise must be a number in [0, {MAX_NOISE:.3g}], so that float32 pixels stay "
                         f"finite, got {noise}")
    fractions = tuple(split_fractions)
    if (len(fractions) != 3 or not all(math.isfinite(f) and f >= 0 for f in fractions)
            or abs(sum(fractions) - 1.0) > 1e-9):
        raise UsageError(f"split fractions must be three finite numbers >= 0 that sum to 1, got {fractions}")
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    prof = PROFILES[profile]
    if n_classes is None:
        n_classes = prof.default_classes
    if not 1 <= n_classes <= prof.max_classes:
        raise ConfigError(f"profile {profile!r} supports 1..{prof.max_classes} classes, got {n_classes}")
    for bands, h, w in prof.subset_shapes:
        if h % GRID or w % GRID:
            raise ConfigError(f"subset {bands}x{h}x{w} not divisible by the {GRID}x{GRID} grid")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    n_bands = sum(s[0] for s in prof.subset_shapes)
    signatures = class_signatures(rng, n_classes, n_bands)
    footprints = rng.integers(1, 3, size=(n_classes, 2))

    ids = []
    for i in range(n_samples):
        subsets, labels = _render_sample(rng, prof, signatures, footprints, n_classes, noise)
        sid = f"{profile}-{i:05d}"
        write_sample(out / f"{sid}.mrs", Sample(subsets=subsets, labels=labels, id=sid))
        ids.append(sid)

    counts = split_counts(n_samples, fractions)
    order = rng.permutation(n_samples)
    splits = {}
    start = 0
    for name, count in zip(SPLIT_NAMES, counts):
        splits[name] = [ids[j] for j in order[start : start + count]]
        start += count

    manifest = DatasetManifest(
        subset_shapes=[tuple(s) for s in prof.subset_shapes],
        n_classes=n_classes,
        class_names=[f"class_{c:02d}" for c in range(n_classes)],
        splits=splits,
        seed=seed,
        noise=noise,
        profile=profile,
    )
    manifest.save(out / "manifest.json")
    return manifest


def load_split(manifest: DatasetManifest, split: str, root) -> list:
    """All samples of a split, in manifest order, validated against it."""
    if split not in manifest.splits:
        raise UsageError(f"unknown split {split!r}; manifest has {sorted(manifest.splits)}")
    root = Path(root)
    return [read_sample(root / f"{sid}.mrs", manifest) for sid in manifest.splits[split]]


def dataset_signatures(manifest: DatasetManifest) -> np.ndarray:
    """Re-derive the generator's class signatures from the manifest seed."""
    rng = np.random.Generator(np.random.PCG64(manifest.seed))
    n_bands = sum(s[0] for s in manifest.subset_shapes)
    return class_signatures(rng, manifest.n_classes, n_bands)
