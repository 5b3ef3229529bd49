"""Exception types shared across the package."""


class MeadowError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MeadowError):
    """Malformed concrete syntax. Carries the character offset of the fault,
    or None where no text position applies, as for a bad command-line value
    or an unreadable file."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(
            message if position is None else f"{message} (at position {position})"
        )
        self.position = position


class FormatError(MeadowError):
    """Malformed structure file. Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class UnboundVariable(MeadowError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class MissingInverseTable(MeadowError):
    """The term mentions ^-1 but the structure carries no inverse table."""


class NoFiniteCharacteristic(MeadowError):
    """Repeated sums of 1 cycle without reaching 0; the tables are corrupt."""


class SizeOverflow(MeadowError):
    """A requested carrier or literal would exceed its size bound."""


class SearchBoundExceeded(MeadowError):
    """A homomorphism search would enumerate too many candidate maps."""


class NotAMeadow(MeadowError):
    """An operation requiring the restricted inverse law got a structure violating it."""


class NotPrime(MeadowError):
    def __init__(self, n: int):
        super().__init__(f"{n} is not prime")
        self.n = n


class NotRegular(MeadowError):
    """The ring has an element without a pseudoinverse."""

    def __init__(self, witness: int):
        super().__init__(f"not regular: witness {witness}")
        self.witness = witness


class UniquenessViolated(MeadowError):
    """Two distinct double pseudoinverses exist; impossible for commutative rings."""


class DecompositionNotFound(MeadowError):
    """The structure is not a non-trivial meadow, so it has no field decomposition."""


class UnsupportedPremise(MeadowError):
    """The conditional contains a disequation, which the equational encoding cannot express."""
