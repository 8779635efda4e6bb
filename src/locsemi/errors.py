"""Shared exception types."""


class MagmaError(Exception):
    """Base class for all library errors."""


class DomainError(MagmaError):
    """An argument refers to elements outside the structure it targets."""


class ParseError(MagmaError):
    """Malformed magma or quiver text."""


class CapacityError(MagmaError):
    """Requested computation exceeds the supported exhaustive size."""


class CompositionUndefined(MagmaError):
    """Path composition attempted on a pair with mismatched endpoints."""


class PreconditionError(MagmaError):
    """A structural precondition (totality, associativity, refinedness) failed."""


class InvariantError(MagmaError):
    """A property that holds for every input failed: a bug, not bad input."""


class NotAssociative(MagmaError):
    """Zero-completion produced a non-associative total operation."""

    def __init__(self, triple, lhs, rhs):
        self.triple = tuple(triple)
        self.lhs = lhs
        self.rhs = rhs
        x, y, z = self.triple
        super().__init__(f"({x}*{y})*{z} = {lhs} but {x}*({y}*{z}) = {rhs}")
