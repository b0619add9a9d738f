"""Checkpoint serialization.

Layout (all integers and floats little-endian):

    magic "MAC1" | version u16 | count u32 | count parameter entries
    | count u32  | optimizer-state entries in the same encoding
    | epoch u32  | config-echo length u32 | config-echo UTF-8 JSON

Entry encoding: name length u16, UTF-8 name, rank u8, one u32 per
dimension, then float32 values. Reloading reproduces forward outputs
bit-exactly at 32-bit.
"""

import json
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BinaryReader, ConfigError, FormatError, json_object

MAGIC = b"MAC1"
FORMAT_VERSION = 1


@dataclass
class CheckpointData:
    params: dict  # name -> float32 ndarray
    optimizer_state: dict  # name -> float32 ndarray
    epoch: int
    config: dict


def _write_entries(f, entries: dict):
    f.write(struct.pack("<I", len(entries)))
    for name, value in entries.items():
        arr = np.ascontiguousarray(value, dtype="<f4")
        encoded = name.encode("utf-8")
        f.write(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape))
        f.write(arr)


def _read_entries(reader: BinaryReader, what: str) -> dict:
    (count,) = reader.unpack("<I", f"{what} count")
    entries = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H", f"{what} name length")
        try:
            name = reader.take(name_len, f"{what} name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{reader.path}: {what} name is not UTF-8") from exc
        (rank,) = reader.unpack("<B", f"{what} rank")
        dims = reader.unpack(f"<{rank}I", f"{what} dims")
        if name in entries:
            raise FormatError(f"{reader.path}: repeated {what} entry {name!r}")
        entries[name] = reader.array("<f4", dims, f"{what} values of {name!r}")
    return entries


@contextmanager
def replacing(path):
    """A binary file open on ``<path>.tmp`` that is renamed onto ``path``
    once the block completes; if the block raises, the temp file is
    removed and ``path`` is left as it was."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_checkpoint(path, params: dict, optimizer_state: dict, epoch: int, config: dict):
    """Stream the checkpoint to ``path`` through ``replacing``."""
    echo = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with replacing(path) as f:
        f.write(MAGIC + struct.pack("<H", FORMAT_VERSION))
        _write_entries(f, {name: t.data for name, t in params.items()})
        _write_entries(f, optimizer_state)
        f.write(struct.pack("<II", epoch, len(echo)) + echo)


def read_checkpoint(path) -> CheckpointData:
    with BinaryReader(path, MAGIC, FORMAT_VERSION) as reader:
        params = _read_entries(reader, "parameter")
        opt_state = _read_entries(reader, "optimizer state")
        (epoch,) = reader.unpack("<I", "epoch")
        (config_len,) = reader.unpack("<I", "config echo length")
        config = json_object(reader.take(config_len, "config echo"), f"{path}: config echo")
        reader.end("config echo")
    return CheckpointData(params=params, optimizer_state=opt_state, epoch=epoch, config=config)


def load_parameters(model, stored: dict):
    """Copy stored arrays into the model after verifying names, shapes and
    that every value is finite; a refused checkpoint changes nothing."""
    missing = set(model.parameters) - set(stored)
    extra = set(stored) - set(model.parameters)
    if missing or extra:
        raise ConfigError(
            f"checkpoint does not match model: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    for name, tensor in model.parameters.items():
        value = stored[name]
        if value.shape != tensor.shape:
            raise ConfigError(f"checkpoint entry {name!r} has shape {value.shape}, model expects {tensor.shape}")
        if not np.isfinite(value).all():
            raise FormatError(f"checkpoint entry {name!r} holds a non-finite value")
    for name, tensor in model.parameters.items():
        tensor.data = stored[name].astype(model.dtype, copy=False)
