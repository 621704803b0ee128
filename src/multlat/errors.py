"""Exception types shared across the toolkit.

Every structured failure raised by the library derives from LatticeError so
callers (and the CLI) can distinguish domain errors from programming errors.
"""
from __future__ import annotations


class LatticeError(Exception):
    """Base class for all toolkit errors."""


class NotAPartialOrder(LatticeError):
    """The supplied relation is not reflexive/antisymmetric/transitive."""


class NotALattice(LatticeError):
    """Some pair of elements lacks a unique meet or join."""

    def __init__(self, message: str, pair: tuple[str, str] | None = None):
        super().__init__(message)
        self.pair = pair


class NoBoundedStructure(LatticeError):
    """The order has no global minimum or no global maximum."""


class AxiomViolation(LatticeError):
    """A multiplication axiom fails; carries the axiom id and a witness."""

    def __init__(self, axiom: str, witness: tuple[str, ...], message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class IncompleteTable(LatticeError):
    """A multiplication table is missing entries or names unknown elements."""


class NotAnIdeal(LatticeError):
    """The supplied subset is not an ideal (down-set closed under join)."""


class ImproperIdeal(LatticeError):
    """The supplied ideal is the whole lattice."""


class TooLarge(LatticeError, ValueError):
    """Input exceeds a size cap: that of a brute-force oracle, or the DOT
    palette's colour labels 0..11.  It is also a ValueError, as a size is
    an argument value."""


class SolverTimeout(LatticeError):
    """An exact solver exceeded its time budget."""


class InvalidModulus(LatticeError):
    """Ring constructions need an integer modulus n >= 2."""


class InvalidSpec(LatticeError, ValueError):
    """A fixture name, family spec or search budget is malformed or out of
    range.  It is also a ValueError, so callers that check arguments the
    usual way catch it."""


class SelfCheckError(LatticeError):
    """A theorem-backed internal consistency check failed.

    This is never a property of the input: it means the implementation
    contradicts a proved statement and must be treated as a bug.
    """


class LatticeFileError(LatticeError):
    """A lattice file is malformed (bad JSON, schema, or key set)."""
