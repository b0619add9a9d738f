"""Sample format round-trips, generator determinism, split logic."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mrscene.dataset import (
    MAX_NOISE,
    DatasetManifest,
    Sample,
    dataset_signatures,
    generate_synthetic,
    load_split,
    read_sample,
    split_counts,
    write_sample,
)
from mrscene.errors import (
    BadMagicError,
    ConfigError,
    FormatError,
    ManifestMismatchError,
    TruncatedFileError,
    UsageError,
)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def random_sample(rng, shapes, n_classes, sid="s0") -> Sample:
    subsets = [rng.normal(size=s).astype(np.float32) for s in shapes]
    labels = np.zeros(n_classes, np.uint8)
    labels[rng.integers(0, n_classes)] = 1
    return Sample(subsets=subsets, labels=labels, id=sid)


class TestSampleRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        sample = random_sample(rng, [(4, 8, 8), (6, 4, 4), (2, 2, 2)], 8)
        path = tmp_path / "s.mrs"
        write_sample(path, sample)
        back = read_sample(path)
        for a, b in zip(sample.subsets, back.subsets):
            np.testing.assert_array_equal(a, b)
            assert b.dtype == np.float32
        np.testing.assert_array_equal(sample.labels, back.labels)

    def test_bigearthnet_shaped_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        sample = random_sample(rng, [(4, 120, 120), (6, 60, 60), (2, 20, 20)], 43)
        path = tmp_path / "ben.mrs"
        write_sample(path, sample)
        back = read_sample(path)
        assert [s.shape for s in back.subsets] == [(4, 120, 120), (6, 60, 60), (2, 20, 20)]
        assert back.labels.size == 43

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "bad.mrs"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(BadMagicError):
            read_sample(path)

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(2)
        sample = random_sample(rng, [(2, 4, 4), (1, 2, 2)], 4)
        path = tmp_path / "t.mrs"
        write_sample(path, sample)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(TruncatedFileError) as info:
                read_sample(path)
            assert type(info.value) is TruncatedFileError, cut

    def test_trailing_garbage(self, tmp_path):
        rng = np.random.default_rng(3)
        sample = random_sample(rng, [(2, 4, 4)], 4)
        path = tmp_path / "g.mrs"
        write_sample(path, sample)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            read_sample(path)

    def test_manifest_mismatch(self, tmp_path):
        rng = np.random.default_rng(4)
        sample = random_sample(rng, [(2, 4, 4)], 4)
        path = tmp_path / "m.mrs"
        write_sample(path, sample)
        manifest = DatasetManifest(
            subset_shapes=[(2, 8, 8)], n_classes=4,
            class_names=["a", "b", "c", "d"], splits={"train": ["m"]},
        )
        with pytest.raises(ManifestMismatchError):
            read_sample(path, manifest)

    def test_all_zero_labels_rejected_against_manifest(self, tmp_path):
        rng = np.random.default_rng(5)
        sample = random_sample(rng, [(2, 4, 4)], 4)
        sample.labels[:] = 0
        path = tmp_path / "z.mrs"
        write_sample(path, sample)
        manifest = DatasetManifest(
            subset_shapes=[(2, 4, 4)], n_classes=4,
            class_names=["a", "b", "c", "d"], splits={"train": ["z"]},
        )
        read_sample(path)  # permissive without a manifest
        with pytest.raises(ManifestMismatchError):
            read_sample(path, manifest)


class TestCrashSafeWrites:
    """A sample file or manifest whose write fails midway leaves the
    previous file as it was and no ``.tmp`` file behind."""

    class HalfWriter:
        """A file that takes half of its first write, then fails as a full
        disk would."""

        def __init__(self, path, mode):
            self.file = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.file.close()

        def write(self, data):
            self.file.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    @pytest.mark.parametrize("what", ["sample", "manifest"])
    def test_a_failed_rewrite_keeps_the_old_file(self, tmp_path, monkeypatch, what):
        shapes = [(4, 8, 8), (2, 4, 4)]
        path = tmp_path / ("s.mrs" if what == "sample" else "manifest.json")

        def write(seed):
            if what == "sample":
                write_sample(path, random_sample(np.random.default_rng(seed), shapes, 5))
            else:
                DatasetManifest(shapes, 5, [f"c{i}" for i in range(5)], {"train": ["s0"]}, seed=seed).save(path)

        write(0)
        before = path.read_bytes()
        monkeypatch.setattr("mrscene.checkpoint.open", self.HalfWriter, raising=False)
        with pytest.raises(OSError, match="No space"):
            write(1)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestSplitCounts:
    def test_64_gives_38_13_13(self):
        assert split_counts(64) == (38, 13, 13)

    def test_100_gives_60_20_20(self):
        assert split_counts(100) == (60, 20, 20)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 10, 99, 512])
    def test_counts_sum_to_n(self, n):
        assert sum(split_counts(n)) == n


class TestGenerator:
    def test_deterministic_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic(a, seed=42, n_samples=12, profile="tiny")
        generate_synthetic(b, seed=42, n_samples=12, profile="tiny")
        assert tree_digest(a) == tree_digest(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic(a, seed=1, n_samples=4, profile="tiny")
        generate_synthetic(b, seed=2, n_samples=4, profile="tiny")
        assert tree_digest(a) != tree_digest(b)

    def test_every_sample_has_a_label(self, tmp_path):
        manifest = generate_synthetic(tmp_path / "d", seed=7, n_samples=20, profile="tiny")
        for split in ("train", "val", "test"):
            for sample in load_split(manifest, split, tmp_path / "d"):
                assert sample.labels.sum() >= 1

    def test_tiny_profile_shapes(self, tmp_path):
        manifest = generate_synthetic(tmp_path / "d", seed=0, n_samples=2, profile="tiny")
        assert manifest.subset_shapes == [(4, 24, 24), (6, 12, 12), (2, 4, 4)]
        sample = load_split(manifest, "train", tmp_path / "d")[0]
        assert [s.shape for s in sample.subsets] == manifest.subset_shapes

    def test_splits_disjoint_and_sized(self, tmp_path):
        manifest = generate_synthetic(tmp_path / "d", seed=3, n_samples=100, profile="tiny")
        train, val, test = (set(manifest.splits[s]) for s in ("train", "val", "test"))
        assert len(train) == 60 and len(val) == 20 and len(test) == 20
        assert not (train & val) and not (train & test) and not (val & test)

    def test_rejects_bad_args(self, tmp_path):
        with pytest.raises(UsageError):
            generate_synthetic(tmp_path / "d", seed=0, n_samples=0)
        with pytest.raises(UsageError):
            generate_synthetic(tmp_path / "d", seed=-1, n_samples=1)
        with pytest.raises(ConfigError):
            generate_synthetic(tmp_path / "d", seed=0, n_samples=1, profile="huge")
        with pytest.raises(ConfigError):
            generate_synthetic(tmp_path / "d", seed=0, n_samples=1, profile="tiny", n_classes=99)
        for noise in (-1.0, float("nan"), float("inf"), np.nextafter(MAX_NOISE, np.inf)):
            with pytest.raises(UsageError):
                generate_synthetic(tmp_path / "d", seed=0, n_samples=1, noise=noise)

    def test_largest_noise_writes_finite_pixels(self, tmp_path):
        manifest = generate_synthetic(tmp_path / "d", seed=3, n_samples=4, profile="bigearthnet-shaped",
                                      noise=MAX_NOISE)
        for split in manifest.splits:
            for sample in load_split(manifest, split, tmp_path / "d"):
                assert all(np.isfinite(a).all() for a in sample.subsets)

    def test_unknown_split(self, tmp_path):
        manifest = generate_synthetic(tmp_path / "d", seed=0, n_samples=2)
        with pytest.raises(UsageError):
            load_split(manifest, "holdout", tmp_path / "d")

    def test_manifest_roundtrip(self, tmp_path):
        manifest = generate_synthetic(tmp_path / "d", seed=5, n_samples=6)
        loaded = DatasetManifest.load(tmp_path / "d" / "manifest.json")
        assert loaded == manifest

    @pytest.mark.parametrize("raw", [
        b"[1, 2]", b"5", b"\xff{}",
        b'{"n_subsets": 1, "subset_shapes": 5, "n_classes": 2, "class_names": [], "splits": {}}',
        b'{"n_subsets": 1, "subset_shapes": [[2, 4]], "n_classes": 2, "class_names": [], "splits": {}}',
        b'{"n_subsets": 1, "subset_shapes": [[2, "4", 4]], "n_classes": 2, "class_names": [], "splits": {}}',
    ])
    def test_malformed_manifest_raises_format_error(self, raw):
        with pytest.raises(FormatError):
            DatasetManifest.from_json(raw)

    def test_unknown_manifest_key_raises_format_error(self, tmp_path):
        manifest = generate_synthetic(tmp_path / "d", seed=0, n_samples=2)
        with pytest.raises(FormatError, match="n_subset"):
            DatasetManifest.from_json(json.dumps({**json.loads(manifest.to_json()), "n_subset": 3}))

    def test_legacy_n_subsets_must_match_subset_shapes(self, tmp_path):
        manifest = generate_synthetic(tmp_path / "d", seed=0, n_samples=2)
        payload = json.loads(manifest.to_json())
        assert "n_subsets" not in payload
        assert DatasetManifest.from_json(json.dumps({**payload, "n_subsets": 3})) == manifest
        for wrong in (7, 2, None, "3"):
            with pytest.raises(FormatError, match="n_subsets"):
                DatasetManifest.from_json(json.dumps({**payload, "n_subsets": wrong}))


class TestSeparability:
    def test_noise_free_patch_means_recover_labels(self, tmp_path):
        """Sanity oracle: with sigma=0 a nearest-signature classifier on
        per-cell band means must recover every label set exactly."""
        manifest = generate_synthetic(tmp_path / "d", seed=11, n_samples=30, profile="tiny", noise=0.0)
        signatures = dataset_signatures(manifest)
        candidates = np.vstack([np.zeros(signatures.shape[1]), signatures])  # row 0 = background
        for split in ("train", "val", "test"):
            for sample in load_split(manifest, split, tmp_path / "d"):
                found = set()
                for g in range(4):
                    for h in range(4):
                        means = []
                        for arr in sample.subsets:
                            ch, cw = arr.shape[1] // 4, arr.shape[2] // 4
                            cell = arr[:, g * ch : (g + 1) * ch, h * cw : (h + 1) * cw]
                            means.append(cell.mean(axis=(1, 2)))
                        vec = np.concatenate(means)
                        nearest = np.argmin(np.linalg.norm(candidates - vec, axis=1))
                        if nearest > 0:
                            found.add(nearest - 1)
                expected = set(np.flatnonzero(sample.labels))
                assert found == expected
