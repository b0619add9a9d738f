"""Checkpoint format round-trips and mismatch detection."""

import struct

import numpy as np
import pytest

from mrscene.checkpoint import load_parameters, read_checkpoint, write_checkpoint
from mrscene.errors import BadMagicError, ConfigError, FormatError, TruncatedFileError
from mrscene.tensor import Tensor


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


def raw_checkpoint(name=b"w", dims=(2,), values=bytes(8), echo=b"{}") -> bytes:
    """A MAC1 file with one parameter entry, no optimizer state, epoch 0."""
    entry = struct.pack("<H", len(name)) + name + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + values
    return (b"MAC1" + struct.pack("<HI", 1, 1) + entry + struct.pack("<III", 0, 0, len(echo)) + echo)


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

    def test_load_parameters_restores_forward_exactly(self, tmp_path):
        rng = np.random.default_rng(2)
        params = some_params(rng)
        write_checkpoint(tmp_path / "ck.mac", params, {}, 0, {})
        other = some_params(np.random.default_rng(99))
        model = FakeModel(other)
        load_parameters(model, read_checkpoint(tmp_path / "ck.mac").params)
        for name in params:
            np.testing.assert_array_equal(model.parameters[name].data, params[name].data)


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
    ])
    def test_malformed_contents_raise_format_error(self, tmp_path, fields):
        path = tmp_path / "bad.mac"
        path.write_bytes(raw_checkpoint(**fields))
        with pytest.raises(FormatError):
            read_checkpoint(path)
