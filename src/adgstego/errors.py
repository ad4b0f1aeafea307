"""Exception hierarchy shared across the codec, LM and corpus layers."""


class StegoError(Exception):
    """Base class for all errors raised by this package."""


class EmptyCorpusError(StegoError):
    """Preprocessing or training received no usable sentences."""


class QuantizationError(StegoError):
    """Input probabilities are not a valid distribution."""


class ProviderError(StegoError):
    """External distribution provider timed out or sent a malformed reply."""


class ModelMismatchError(StegoError):
    """Model file was trained against a different vocabulary."""


class DesyncError(StegoError):
    """Extraction hit a token the shared model cannot explain.

    Almost always means sender and receiver disagree on the model file,
    the vocabulary, or the codec parameters.
    """


class TruncationError(StegoError):
    """Bitstream ended before the amount promised by its frame header."""


class CapacityError(StegoError):
    """Generation budget was exhausted before the message was delivered."""


class ConfigError(StegoError, ValueError):
    """A parameter, config value or input file failed validation where it is read."""
