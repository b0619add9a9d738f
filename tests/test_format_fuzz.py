"""Any bytes given to a file reader either parse or raise FormatError."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mrscene.checkpoint import read_checkpoint, write_checkpoint
from mrscene.dataset import DatasetManifest, Sample, read_sample, write_sample
from mrscene.errors import FormatError
from mrscene.tensor import Tensor

MANIFEST = DatasetManifest(subset_shapes=[(2, 4, 4), (1, 2, 2)], n_classes=3,
                           class_names=["a", "b", "c"], splits={"train": ["s0"], "val": [], "test": []})


def corrupted(valid: bytes):
    """The valid file with a few bytes overwritten, cut short and extended,
    or its magic followed by arbitrary bytes."""

    @st.composite
    def edited(draw):
        blob = bytearray(valid)
        for _ in range(draw(st.integers(0, 4))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        return bytes(blob[: draw(st.integers(0, len(blob)))]) + draw(st.binary(max_size=8))

    return st.one_of(edited(), st.binary(max_size=64).map(lambda tail: valid[:4] + tail))


def valid_checkpoint(path) -> bytes:
    params = {"layer.weight": Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)),
              "bias": Tensor(np.ones(1, np.float32))}
    write_checkpoint(path, params, {"adam.step": np.ones(1, np.float32)}, 3, {"model": {"n_classes": 3}})
    return path.read_bytes()


def valid_sample(path) -> bytes:
    subsets = [np.full(shape, 0.5, np.float32) for shape in MANIFEST.subset_shapes]
    write_sample(path, Sample(subsets=subsets, labels=np.array([0, 1, 0], np.uint8), id="s0"))
    return path.read_bytes()


def parses_or_format_error(read, *args):
    try:
        return read(*args)
    except FormatError:
        return None


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(data=st.data())
def test_read_checkpoint_any_bytes(scratch, data):
    blob = data.draw(corrupted(valid_checkpoint(scratch / "valid.mac")))
    (scratch / "fuzzed.mac").write_bytes(blob)
    parses_or_format_error(read_checkpoint, scratch / "fuzzed.mac")


@FUZZ
@given(data=st.data())
def test_read_sample_any_bytes(scratch, data):
    blob = data.draw(corrupted(valid_sample(scratch / "valid.mrs")))
    (scratch / "fuzzed.mrs").write_bytes(blob)
    parses_or_format_error(read_sample, scratch / "fuzzed.mrs")
    parses_or_format_error(read_sample, scratch / "fuzzed.mrs", MANIFEST)


JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                    max_leaves=12)


def strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


@FUZZ
@given(raw=st.one_of(
    corrupted(MANIFEST.to_json().encode("utf-8")),
    JSON.map(lambda value: json.dumps(value).encode("utf-8")),
    st.fixed_dictionaries({key: JSON for key in ("n_subsets", "subset_shapes", "n_classes",
                                                  "class_names", "splits")}).map(
        json.dumps),
    st.fixed_dictionaries({"class_names": JSON,
                           "splits": JSON | st.dictionaries(st.text(max_size=4), JSON)}).map(
        lambda fields: json.dumps({**json.loads(MANIFEST.to_json()), **fields})),
))
def test_manifest_from_json_any_bytes(raw):
    """A manifest that parses has the field types its readers index by."""
    manifest = parses_or_format_error(DatasetManifest.from_json, raw)
    if manifest is not None:
        assert strings(manifest.class_names) and len(manifest.class_names) == manifest.n_classes
        assert isinstance(manifest.splits, dict) and all(strings(ids) for ids in manifest.splits.values())


@pytest.mark.parametrize("field,value", [
    ("splits", 5),
    ("splits", ["train"]),
    ("splits", {"test": 5}),
    ("splits", {"test": "s0"}),
    ("splits", {"test": [0]}),
    ("class_names", "abc"),
    ("class_names", {"a": 1}),
    ("class_names", ["a", None, "c"]),
    ("class_names", ["a", "b"]),
])
def test_manifest_field_of_wrong_type_is_named(field, value):
    raw = json.dumps({**json.loads(MANIFEST.to_json()), field: value})
    with pytest.raises(FormatError, match=field):
        DatasetManifest.from_json(raw)
