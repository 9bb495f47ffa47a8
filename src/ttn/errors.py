"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors exit with 2 (argparse's
default), DataError subclasses with 3, NumericError subclasses with 4.
"""


class TtnError(Exception):
    """Base class for every error this package raises deliberately."""


class DataError(TtnError):
    """Bad, missing, or inconsistent input data."""


class NumericError(TtnError):
    """Numerical failure, e.g. a non-finite loss or input."""


class EmptyVocabulary(DataError):
    """No word survived document-frequency filtering."""


class EmptyDocument(DataError):
    """A document has no usable (in-vocabulary) tokens."""


class DuplicateId(DataError):
    """Two items share an identifier that must be unique."""


class FormatVersionMismatch(DataError):
    """A binary file's magic bytes do not match the expected format."""


class CorruptFile(DataError):
    """A file is truncated or structurally invalid."""


class ShapeMismatch(DataError):
    """Array shapes are incompatible with the declared network or operation."""


class TapeMismatch(TtnError):
    """A backward tape was already consumed or does not belong to the net."""


class NonFiniteInput(NumericError):
    """An input tensor contains NaN or infinity."""


class NonFiniteLoss(NumericError):
    """Training produced a NaN or infinite loss value."""


class CropTooLarge(DataError):
    """Requested crop size exceeds the stored image."""


class NoPairs(DataError):
    """No usable image/target pair could be built."""


class UnknownLayer(DataError):
    """A layer name does not exist in the network."""


class EmptyModality(DataError):
    """The retrieval index holds no entry of the requested modality."""


class DimensionMismatch(DataError):
    """Two vectors that must share a dimension do not."""


class SingleClassData(DataError):
    """Classifier training data contains only one class."""


class NoRelevant(DataError):
    """A ranking has no relevant item, so average precision is undefined."""
