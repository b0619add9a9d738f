"""Exception types shared across the package."""

from numbers import Integral, Real


class MrsceneError(Exception):
    """Base class for all package errors."""


class ShapeError(MrsceneError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class ConfigError(MrsceneError, ValueError):
    """A configuration value is invalid or inconsistent with the data."""


_KIND_NAMES = {Integral: "an integer", Real: "a number", bool: "true or false", str: "a string"}


def require_types(section: str, config, kinds: dict):
    """Raise ConfigError for the first field of ``config`` whose value is
    not of its kind: Integral, Real, bool or str. A bool is neither an
    Integral nor a Real here, so ``"epochs": true`` is refused."""
    for name, kind in kinds.items():
        value = getattr(config, name)
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ConfigError(f"{section}.{name} must be {_KIND_NAMES[kind]}, got {value!r}")


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
