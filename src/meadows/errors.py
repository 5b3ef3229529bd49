"""Exception types shared across the package."""


class MeadowError(Exception):
    """Base class for all errors raised by this package.  ``exit_code`` is
    the CLI's exit status for the error: 2, a parse or model error, unless
    a subclass says otherwise."""

    exit_code = 2


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
    exit_code = 3

    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class MissingInverseTable(MeadowError):
    """The term mentions ^-1 but the structure carries no inverse table."""

    exit_code = 3


class NoFiniteCharacteristic(MeadowError):
    """Repeated sums of 1 cycle without reaching 0; the tables are corrupt."""


class SizeOverflow(MeadowError):
    """A requested carrier or literal would exceed its size bound."""

    exit_code = 4


class SearchBoundExceeded(MeadowError):
    """A homomorphism search would enumerate too many candidate maps."""

    exit_code = 4


class NotAMeadow(MeadowError):
    """An operation requiring the restricted inverse law got a structure violating it."""


class NotPrime(MeadowError):
    def __init__(self, n: int):
        super().__init__(f"{n} is not prime")
        self.n = n


class NotRegular(MeadowError):
    """The ring has an element without a pseudoinverse."""

    exit_code = 5

    def __init__(self, witness: int):
        super().__init__(f"not regular: witness {witness}")
        self.witness = witness


class UniquenessViolated(MeadowError):
    """Two distinct double pseudoinverses exist; impossible for commutative rings."""


class DecompositionNotFound(MeadowError):
    """The structure is not a non-trivial meadow, so it has no field decomposition."""

    exit_code = 6


class UnsupportedPremise(MeadowError):
    """The conditional contains a disequation, which the equational encoding cannot express."""
