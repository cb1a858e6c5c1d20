"""Exception hierarchy. Every engine error derives from QheisError."""


class QheisError(Exception):
    pass


class DivisionByZero(QheisError, ZeroDivisionError):
    """Inversion of the zero scalar."""


class ExponentOverflow(QheisError, OverflowError):
    """A central variable's exponent leaves the range the coefficient kernel
    stores: -2^28 <= e < 2^28."""


class PoleAtPoint(QheisError, ArithmeticError):
    """A denominator vanishes at an evaluation or substitution point."""


class UnboundVariable(QheisError, LookupError):
    """Evaluation point misses a central variable."""


class AlphabetError(QheisError, ValueError):
    """Operands use clashing generator alphabets, or a relation uses an
    undeclared generator."""


class UnboundGenerator(QheisError, LookupError):
    """Substitution map misses a generator."""


class OrientationError(QheisError, ValueError):
    """A relation cannot be turned into a valid rewrite rule."""


class NonTermination(QheisError, RuntimeError):
    """Normalization's step limit or completion's bound exceeded."""

    def __init__(self, message, chain=()):
        super().__init__(message)
        self.chain = tuple(chain)


class UnknownFamily(QheisError, LookupError):
    pass


class ParamError(QheisError, ValueError):
    pass


class NotOreShaped(QheisError, ValueError):
    """A product cannot be written as sigma*mover + delta."""


class OracleOverflow(QheisError, RuntimeError):
    """Brute-force reducer exceeded its state cap."""


class OracleDivergence(QheisError, RuntimeError):
    """Brute-force reducer found several distinct normal forms."""

    def __init__(self, message, forms=()):
        super().__init__(message)
        self.forms = tuple(forms)


class ParseError(QheisError, ValueError):
    """Expression syntax error; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class SchemaError(QheisError, ValueError):
    """Presentation document violates the file schema; carries a field path."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path
