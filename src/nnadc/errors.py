"""Exception types shared across the package."""


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
