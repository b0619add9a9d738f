"""Checkpoint format round-trips and mismatch detection."""

import struct
import tracemalloc

import numpy as np
import pytest

from mrscene.checkpoint import load_parameters, read_checkpoint, write_checkpoint
from mrscene.dataset import PROFILES, Sample
from mrscene.errors import BadMagicError, ConfigError, FormatError, TruncatedFileError
from mrscene.head import bce_with_logits_loss
from mrscene.model import Model, ModelConfig
from mrscene.tensor import Tensor
from mrscene.trainer import Adam


class FakeModel:
    def __init__(self, params, dtype=np.float32):
        self.parameters = params
        self.dtype = dtype


def some_params(rng):
    return {
        "layer.weight": Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True),
        "layer.bias": Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True),
        "scalarish": Tensor(rng.normal(size=(1,)).astype(np.float32), requires_grad=True),
    }


def raw_entry(name=b"w", dims=(2,), values=bytes(8)) -> bytes:
    return struct.pack("<H", len(name)) + name + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + values


def raw_file(params, opt_state=(), echo=b"{}") -> bytes:
    """A MAC1 file holding the given packed entries, epoch 0."""
    return (b"MAC1" + struct.pack("<HI", 1, len(params)) + b"".join(params)
            + struct.pack("<I", len(opt_state)) + b"".join(opt_state) + struct.pack("<II", 0, len(echo)) + echo)


def raw_checkpoint(name=b"w", dims=(2,), values=bytes(8), echo=b"{}") -> bytes:
    """A MAC1 file with one parameter entry, no optimizer state, epoch 0."""
    return raw_file([raw_entry(name, dims, values)], echo=echo)


def tiny_model_after_one_adam_step():
    """The default ``tiny`` model and its Adam state after one step."""
    profile = PROFILES["tiny"]
    model = Model(ModelConfig(n_classes=profile.default_classes, subset_shapes=profile.subset_shapes), seed=0)
    rng = np.random.default_rng(0)
    batch = [Sample([rng.normal(size=s).astype(np.float32) for s in profile.subset_shapes],
                    np.eye(profile.default_classes, dtype=np.uint8)[i], f"s{i}") for i in range(4)]
    bce_with_logits_loss(model.forward_samples(batch).scores,
                         np.stack([s.labels for s in batch]).astype(np.float32)).backward()
    optimizer = Adam(1e-3)
    optimizer.step(model.parameters)
    return model, optimizer.state_entries()


class TestRoundTrip:
    def test_values_epoch_config_preserved(self, tmp_path):
        rng = np.random.default_rng(0)
        params = some_params(rng)
        opt_state = {"adam.step": np.array([7.0], np.float32),
                     "adam.m.layer.weight": rng.normal(size=(3, 4)).astype(np.float32)}
        config = {"model": {"hidden_width": 5}, "train": {"learning_rate": 1e-3}}
        path = tmp_path / "ck.mac"
        write_checkpoint(path, params, opt_state, epoch=7, config=config)
        data = read_checkpoint(path)
        assert data.epoch == 7
        assert data.config == config
        for name, t in params.items():
            np.testing.assert_array_equal(data.params[name], t.data)
        np.testing.assert_array_equal(data.optimizer_state["adam.m.layer.weight"],
                                      opt_state["adam.m.layer.weight"])
        assert data.optimizer_state["adam.step"].reshape(-1)[0] == 7.0

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(1)
        params = some_params(rng)
        write_checkpoint(tmp_path / "a.mac", params, {}, 1, {"x": 1})
        write_checkpoint(tmp_path / "b.mac", params, {}, 1, {"x": 1})
        assert (tmp_path / "a.mac").read_bytes() == (tmp_path / "b.mac").read_bytes()

    def test_float64_and_transposed_values_round_trip_as_float32(self, tmp_path):
        rng = np.random.default_rng(8)
        wide = rng.normal(size=(3, 4))
        transposed = rng.normal(size=(5, 2)).astype(np.float32).T
        assert wide.dtype == np.float64 and not transposed.flags.c_contiguous
        path = tmp_path / "ck.mac"
        write_checkpoint(path, {"wide": Tensor(wide), "transposed": Tensor(transposed)},
                         {"adam.m.transposed": transposed}, 0, {})
        data = read_checkpoint(path)
        for stored, original in ((data.params["wide"], wide), (data.params["transposed"], transposed),
                                 (data.optimizer_state["adam.m.transposed"], transposed)):
            assert stored.dtype == np.float32
            np.testing.assert_array_equal(stored, original.astype(np.float32))

    def test_load_parameters_restores_forward_exactly(self, tmp_path):
        rng = np.random.default_rng(2)
        params = some_params(rng)
        write_checkpoint(tmp_path / "ck.mac", params, {}, 0, {})
        other = some_params(np.random.default_rng(99))
        model = FakeModel(other)
        load_parameters(model, read_checkpoint(tmp_path / "ck.mac").params)
        for name in params:
            np.testing.assert_array_equal(model.parameters[name].data, params[name].data)


class TestStreamedRead:
    def test_read_and_load_hold_the_file_once(self, tmp_path):
        """Each entry is read from the file straight into its own array, and
        loading float32 values into a float32 model copies none of them:
        the traced peak stays under 1.2 times the 9 MB file, where reading
        the file into memory and copying the entries out held it twice."""
        model, state = tiny_model_after_one_adam_step()
        path = tmp_path / "ck.mac"
        write_checkpoint(path, model.parameters, state, 1, {"model": {}})
        tracemalloc.start()
        try:
            stored = read_checkpoint(path)
            load_parameters(model, stored.params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 8e6
        assert peak < 1.2 * path.stat().st_size
        assert all(model.parameters[name].data is value for name, value in stored.params.items())

    def test_load_into_float64_model_converts(self, tmp_path):
        rng = np.random.default_rng(4)
        params = some_params(rng)
        write_checkpoint(tmp_path / "ck.mac", params, {}, 0, {})
        model = FakeModel(some_params(np.random.default_rng(5)), dtype=np.float64)
        load_parameters(model, read_checkpoint(tmp_path / "ck.mac").params)
        for name, tensor in model.parameters.items():
            assert tensor.dtype == np.float64
            np.testing.assert_array_equal(tensor.data, params[name].data)


class TestStreamedWrite:
    def test_write_holds_no_copy_of_the_file(self, tmp_path):
        """The entries go straight to the file: the traced peak stays far
        below the 9 MB file, which building it in memory would hold at
        least once."""
        model, state = tiny_model_after_one_adam_step()
        path = tmp_path / "ck.mac"
        tracemalloc.start()
        try:
            write_checkpoint(path, model.parameters, state, 1, {"model": {}})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 8e6
        assert peak < 1e6
        assert [p.name for p in tmp_path.iterdir()] == ["ck.mac"]

    def test_overwrite_replaces_the_previous_file(self, tmp_path):
        rng = np.random.default_rng(9)
        path = tmp_path / "ck.mac"
        write_checkpoint(path, some_params(rng), {}, 1, {})
        params = some_params(rng)
        write_checkpoint(path, params, {}, 2, {})
        assert read_checkpoint(path).epoch == 2
        np.testing.assert_array_equal(read_checkpoint(path).params["layer.weight"], params["layer.weight"].data)
        assert [p.name for p in tmp_path.iterdir()] == ["ck.mac"]

    @pytest.mark.parametrize("params, opt_state, error", [
        ({"\ud800": np.ones(2)}, {}, UnicodeEncodeError),  # a lone surrogate has no UTF-8 form
        ({}, {"adam.step": np.array(["not a number"])}, ValueError),
    ])
    def test_failed_write_leaves_the_previous_checkpoint(self, tmp_path, params, opt_state, error):
        """The write raises after some bytes have gone out; the file at the
        path is untouched and the temp file is gone."""
        rng = np.random.default_rng(10)
        path = tmp_path / "ck.mac"
        write_checkpoint(path, some_params(rng), {"adam.step": np.array([1.0])}, 1, {"x": 1})
        before = path.read_bytes()
        doomed = dict(some_params(rng), **{name: Tensor(value) for name, value in params.items()})
        with pytest.raises(error):
            write_checkpoint(path, doomed, opt_state, 2, {"x": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.mac"]


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mac"
        path.write_bytes(b"WHAT" + bytes(32))
        with pytest.raises(BadMagicError):
            read_checkpoint(path)

    def test_truncation(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "t.mac"
        write_checkpoint(path, some_params(rng), {"adam.m.layer.bias": np.ones(3, np.float32)}, 0, {"model": {}})
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(TruncatedFileError) as info:
                read_checkpoint(path)
            assert type(info.value) is TruncatedFileError, cut

    def test_shape_mismatch_on_load(self, tmp_path):
        rng = np.random.default_rng(4)
        params = some_params(rng)
        path = tmp_path / "ck.mac"
        write_checkpoint(path, params, {}, 0, {})
        wrong = dict(params)
        wrong["layer.weight"] = Tensor(np.zeros((5, 4), np.float32), requires_grad=True)
        with pytest.raises(ConfigError, match="layer.weight"):
            load_parameters(FakeModel(wrong), read_checkpoint(path).params)

    def test_name_mismatch_on_load(self, tmp_path):
        rng = np.random.default_rng(5)
        params = some_params(rng)
        path = tmp_path / "ck.mac"
        write_checkpoint(path, params, {}, 0, {})
        renamed = {("other." + k): v for k, v in params.items()}
        with pytest.raises(ConfigError):
            load_parameters(FakeModel(renamed), read_checkpoint(path).params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_refused_before_any_copy(self, tmp_path, bad):
        rng = np.random.default_rng(6)
        params = some_params(rng)
        params["scalarish"].data[0] = bad
        path = tmp_path / "ck.mac"
        write_checkpoint(path, params, {}, 0, {})
        target = some_params(np.random.default_rng(7))
        before = {name: t.data.copy() for name, t in target.items()}
        with pytest.raises(FormatError, match="'scalarish'"):
            load_parameters(FakeModel(target), read_checkpoint(path).params)
        for name, t in target.items():
            np.testing.assert_array_equal(t.data, before[name])

    @pytest.mark.parametrize("section", ["parameter", "optimizer state"])
    def test_repeated_entry_name_refused(self, tmp_path, section):
        """A later entry of the same name does not silently replace the first."""
        twice = [raw_entry(b"classifier.bias", (2,), np.zeros(2, "<f4").tobytes()),
                 raw_entry(b"classifier.bias", (2,), np.ones(2, "<f4").tobytes())]
        path = tmp_path / "twice.mac"
        path.write_bytes(raw_file(twice) if section == "parameter" else raw_file([raw_entry()], twice))
        with pytest.raises(FormatError, match=f"repeated {section} entry 'classifier.bias'"):
            read_checkpoint(path)

    def test_hand_built_file_parses(self, tmp_path):
        path = tmp_path / "ok.mac"
        path.write_bytes(raw_checkpoint(echo=b'{"model": {}}'))
        data = read_checkpoint(path)
        np.testing.assert_array_equal(data.params["w"], np.zeros(2, np.float32))
        assert data.config == {"model": {}}

    @pytest.mark.parametrize("fields", [
        {"name": b"\xff\xfe"},  # name not UTF-8
        {"echo": b"\xff{}"},  # echo not UTF-8
        {"echo": b"not json"},
        {"echo": b"[1, 2]"},  # echo not an object
        {"echo": b"[" * 100_000},  # nesting deeper than the JSON parser recurses
        {"dims": (2**16,) * 4, "values": b""},  # product 2**64 wraps to 0 in int64
        {"dims": (0,) + (2**32 - 1,) * 3, "values": b""},  # empty, but too large for numpy's size
    ])
    def test_malformed_contents_raise_format_error(self, tmp_path, fields):
        path = tmp_path / "bad.mac"
        path.write_bytes(raw_checkpoint(**fields))
        with pytest.raises(FormatError):
            read_checkpoint(path)
