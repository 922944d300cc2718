"""Exception types shared across the package."""


class SchemaError(ValueError):
    """Malformed input: unregistered variable, bad grammar, ill-formed tower."""


class DomainError(ArithmeticError):
    """An operation required an invertible element and got zero."""


class ShapeError(ValueError):
    """Rank or dimension mismatch between operands."""


class UnsupportedRankError(ValueError):
    """Rank outside the supported range 1..4."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured point budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(f"enumeration needs {needed} points, budget is {budget}")
        self.needed = needed
        self.budget = budget


class CatalogError(ValueError):
    """Catalog file failed an integrity check; message names the offending row."""


class ExhaustionError(RuntimeError):
    """A point matched no catalog record."""


class DisjointnessError(RuntimeError):
    """A point matched two or more catalog records."""


class InternalInconsistencyError(RuntimeError):
    """Symbolic and finite-field layers disagreed; indicates a bug or bad data."""
