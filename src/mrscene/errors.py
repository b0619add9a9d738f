"""Exception types shared across the package, and the checks of outside
input that raise them."""

import json
import math
import os
import struct
from dataclasses import MISSING, fields
from numbers import Integral, Real

import numpy as np


class MrsceneError(Exception):
    """Base class for all package errors."""


class ShapeError(MrsceneError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class ConfigError(MrsceneError, ValueError):
    """A configuration value is invalid or inconsistent with the data."""


class UsageError(MrsceneError, ValueError):
    """An operation was invoked in a way its contract forbids."""


class FormatError(MrsceneError, ValueError):
    """A serialized file violates its format."""


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class TruncatedFileError(FormatError):
    """File ended before the declared payload was complete."""


class ManifestMismatchError(FormatError):
    """Sample contents disagree with the dataset manifest."""


class TrainingDivergedError(MrsceneError, RuntimeError):
    """Training produced a non-finite loss."""


def json_object(raw, what: str, error=FormatError) -> dict:
    """The JSON object held by ``raw`` (UTF-8 bytes or text); ``error``
    for bad UTF-8, bad or too deeply nested JSON, or a non-object."""
    try:
        payload = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise error(f"{what} must hold a JSON object")
    return payload


class BinaryReader:
    """Bounded reader over one open binary file that starts with ``magic``
    and a u16 ``version``; a context manager that closes the file. Every
    read past the end raises TruncatedFileError naming the field; ``end``
    refuses trailing bytes."""

    def __init__(self, path, magic: bytes, version: int):
        self.path = path
        self.file = open(path, "rb")
        try:
            self.remaining = os.fstat(self.file.fileno()).st_size
            if self.take(len(magic), "magic") != magic:
                raise BadMagicError(f"{path}: expected magic {magic!r}")
            (found,) = self.unpack("<H", "version")
            if found != version:
                raise FormatError(f"{path}: unsupported format version {found}")
        except BaseException:
            self.file.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def take(self, n: int, what: str) -> bytes:
        return self.array(np.uint8, (n,), what).tobytes()

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype, shape, what: str) -> np.ndarray:
        """The next ``shape`` values of ``dtype``, read from the file
        straight into a new array, which is allocated only once the file
        is known to hold them."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize  # Python ints: a huge product cannot wrap around
        if nbytes > self.remaining:
            raise TruncatedFileError(f"{self.path}: file ends inside {what}")
        self.remaining -= nbytes
        try:
            arr = np.empty(shape, dtype)
        except ValueError as exc:  # an empty shape whose other axes overflow numpy's size
            raise FormatError(f"{self.path}: {what} has shape {tuple(shape)}, too large for an array") from exc
        if self.file.readinto(arr) != nbytes:  # the file shrank while it was read
            raise TruncatedFileError(f"{self.path}: file ends inside {what}")
        return arr

    def end(self, after: str):
        if self.remaining:
            raise FormatError(f"{self.path}: trailing bytes after {after}")


def config_kwargs(section: str, cls, payload, decoders: dict = None, error=ConfigError) -> dict:
    """Constructor keyword arguments for the dataclass ``cls`` from a JSON
    object. ``decoders`` turns the JSON form of a field into its value.
    ``error`` for a non-object, an unknown or missing key, or a value
    its decoder cannot read."""
    if not isinstance(payload, dict):
        raise error(f"{section} must be a JSON object, got {payload!r}")
    declared = fields(cls)
    unknown = sorted(set(payload) - {f.name for f in declared})
    missing = [f.name for f in declared
               if f.name not in payload and f.default is MISSING and f.default_factory is MISSING]
    if unknown:
        raise error(f"{section} has unknown fields {unknown}")
    if missing:
        raise error(f"{section} lacks fields {missing}")
    kwargs = dict(payload)
    for name, decode in (decoders or {}).items():
        if name in kwargs:
            try:
                kwargs[name] = decode(kwargs[name])
            except (TypeError, ValueError, KeyError) as exc:
                raise error(f"{section}.{name} is malformed: {exc!r}") from exc
    return kwargs


def drop_legacy(section: str, payload, key: str, value, error=ConfigError):
    """``payload`` without ``key`` when it holds ``value``, the one value
    the former field ``key`` may still carry in older files. The match is
    strict on type, so ``0`` is not ``false`` and ``3.0`` is not ``3``; any
    other value raises ``error`` naming ``section.key``."""
    if not isinstance(payload, dict) or key not in payload:
        return payload
    found = payload[key]
    if type(found) is not type(value) or found != value:
        raise error(f"{section}.{key} is a former field that may only be {json.dumps(value)}, got {found!r}")
    return {k: v for k, v in payload.items() if k != key}


def shape_triples(shapes) -> list:
    """[(bands, H, W), ...] from a list of three-integer lists; ValueError
    or TypeError for anything else, ``true`` included."""
    triples = [(bands, h, w) for bands, h, w in shapes]
    if not all(isinstance(v, Integral) and not isinstance(v, bool) and v > 0
               for triple in triples for v in triple):
        raise ValueError(f"shapes must be positive integer triples, got {shapes!r}")
    return triples


_KINDS = {int: (Integral, "an integer"), float: (Real, "a number"),
          bool: (bool, "true or false"), str: (str, "a string")}


def require_types(section: str, config, error=ConfigError):
    """Raise ``error`` for the first scalar field of the dataclass
    ``config`` whose value does not fit its annotation: an int field takes
    any Integral, a float field any Real. A bool is neither, so
    ``"epochs": true`` is refused. Fields of other types are not checked."""
    for f in fields(config):
        if f.type in _KINDS:
            kind, what = _KINDS[f.type]
            value = getattr(config, f.name)
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
                raise error(f"{section}.{f.name} must be {what}, got {value!r}")
