"""Exception and warning types shared across the package."""

__all__ = ["MukaiError", "LatticeValidationError", "DocumentError", "IntegralityWarning"]


class MukaiError(Exception):
    """Base class for all domain errors raised by this package."""


class LatticeValidationError(MukaiError, ValueError):
    """A geometric or lattice-theoretic invariant failed.

    Raised for semantically invalid inputs: asymmetric intersection
    tensors, Euler-number mismatches, non-anticanonical section classes,
    non-isometric gluing matrices, and similar.  Maps to CLI exit code 1.
    """


class DocumentError(MukaiError, ValueError):
    """An input document could not be parsed into a domain object.

    When the JSON decoder reports a position, the message ends with it as
    "(line L, column C)".  Maps to CLI exit code 2.
    """


class IntegralityWarning(UserWarning):
    """An exact rational result expected to be an integer was not.

    A fractional Euler pairing on integral Chern data signals inconsistent
    intersection numbers in the ring; the value is still returned exactly.
    """
