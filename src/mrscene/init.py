"""Parameter initialization."""

import zlib

import numpy as np

from .errors import ConfigError
from .tensor import Tensor


def _fans(shape) -> tuple:
    if len(shape) == 2:  # (out, in)
        return shape[1], shape[0]
    if len(shape) == 4:  # (Cout, Cin, kh, kw)
        cout, cin, kh, kw = shape
        return cin * kh * kw, cout * kh * kw
    raise ValueError(f"no fan convention for shape {shape}")


def xavier_init(shape, seed: int, name: str, dtype=np.float32) -> Tensor:
    """Uniform draw on [-a, a] with a = sqrt(6 / (fan_in + fan_out)).

    Rank-1 shapes are biases and start at zero. The stream is keyed by
    (seed, name) through a crc32 of the name, so the same parameter gets
    the same values in every run regardless of construction order.
    """
    shape = tuple(shape)
    if len(shape) == 1:
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
    fan_in, fan_out = _fans(shape)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, zlib.crc32(name.encode())])))
    values = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return Tensor(values, requires_grad=True)


class ParameterSet(dict):
    """A model's trainable tensors by checkpoint name; ``new`` keys each
    tensor's Xavier stream by that same name."""

    def __init__(self, seed: int, dtype=np.float32):
        super().__init__()
        self.seed = seed
        self.dtype = dtype

    def new(self, name: str, shape) -> Tensor:
        """A new Xavier-initialized tensor of ``shape``; ConfigError for a
        taken name or a shape too large to allocate."""
        if name in self:
            raise ConfigError(f"duplicate parameter name {name!r}")
        try:
            self[name] = xavier_init(shape, self.seed, name, self.dtype)
        except (MemoryError, ValueError) as exc:  # numpy refuses a shape past its size limit with ValueError
            raise ConfigError(f"parameter {name!r} of shape {tuple(shape)} cannot be allocated: {exc}") from exc
        return self[name]
