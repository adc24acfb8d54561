"""Exception types shared across the package, and the field type check
that raises them."""

from numbers import Integral


class NnadcError(Exception):
    """Base class for all package errors."""


class DomainError(NnadcError):
    """An input voltage or level is outside its valid range."""


class ShapeError(NnadcError):
    """Array dimensions do not match the layer or batch contract."""


class ConfigError(NnadcError):
    """An invalid configuration value or file."""


class DeviceError(NnadcError):
    """A conductance value violates the device model."""


class PrecisionError(NnadcError):
    """A weight is not representable on the device grid."""


class ModelRefError(NnadcError):
    """A model file is missing, unreadable or malformed, or built from
    another config."""


class CoherenceError(NnadcError):
    """The test tone does not fall on an FFT bin."""


class TrainingError(NnadcError):
    """Training diverged; carries seed and iteration for reproduction,
    which its message names too."""

    def __init__(self, message: str, seed: int, iteration: int):
        super().__init__(f"{message} (seed {seed}, iteration {iteration})")
        self.seed = seed
        self.iteration = iteration


def check_fields(obj, names, kind: type, error: type) -> None:
    """Refuse, with ``error``, a field of ``obj`` that is not a ``kind``
    number (``numbers.Integral`` or ``numbers.Real``).  bool is an int
    subclass, but true/false is no count or voltage."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            expected = "int" if kind is Integral else "a real number"
            raise error(f"{name}: expected {expected}, got "
                        f"{type(value).__name__} {value!r}")
