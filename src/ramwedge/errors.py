"""Exception types shared across the package."""


class FieldMismatchError(ValueError):
    """Raised when scalars from different base fields are combined."""


class PrecisionExhaustedError(ArithmeticError):
    """Raised when a lattice reduction decision would depend on
    coefficients too close to the working precision bound."""


class SchemaError(ValueError):
    """Raised when an input file does not match the expected JSON schema."""


class RankError(ValueError):
    """Raised when a driver is asked for a rank outside its supported range."""


class SignatureError(ValueError):
    """Raised when a driver's signature (r, s) is not a partition of the
    rank it runs at."""


class FrameShapeError(ValueError):
    """Raised when a frame vector leaves its slot {i, n+i} or has a
    coordinate that is not an exact monomial, so the closed-form frame
    wedge does not apply."""
