"""Exception types shared across the package.

Every domain error carries an optional JSON-serializable ``witness`` so the
CLI can emit machine-readable failure envelopes.
"""

from __future__ import annotations


class SiteCalcError(Exception):
    """Base class for all domain errors."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.message = message
        self.witness = witness

    @property
    def code(self) -> str:
        return type(self).__name__

    def to_json(self) -> dict:
        return {"code": self.code, "message": self.message, "witness": self.witness}


class ParseError(SiteCalcError):
    pass


class DuplicateElementError(ParseError):
    pass


class CycleError(SiteCalcError):
    pass


class FrameTooLargeError(SiteCalcError):
    pass


class PosetMismatchError(SiteCalcError):
    pass


class NotOrderMorphismError(SiteCalcError):
    pass


class NotOrderIsomorphismError(SiteCalcError):
    pass


class NotAFrameMorphismError(SiteCalcError):
    pass


class NotSurjectiveError(SiteCalcError):
    pass


class AxiomViolation(SiteCalcError):
    """A candidate cover assignment breaks one of the three site axioms.

    ``axiom`` is one of ``"sieve"``, ``"maximality"``, ``"stability"``,
    ``"transitivity"``.  ``p`` is the element where the failure occurs,
    ``sieve`` the offending cover, ``q`` the element witnessing a stability
    failure, and ``other`` the second sieve of a transitivity failure.
    """

    def __init__(self, message, axiom, p, sieve=None, q=None, other=None, witness=None):
        super().__init__(message, witness)
        self.axiom = axiom
        self.p = p
        self.sieve = sieve
        self.q = q
        self.other = other


class NotDownwardsDirectedError(SiteCalcError):
    pass


class NotDenseError(SiteCalcError):
    pass


class InvalidInnerTopologyError(SiteCalcError):
    pass


class TooLargeForBruteForceError(SiteCalcError):
    pass


class NotANucleusError(SiteCalcError):
    pass


class NotACongruenceError(SiteCalcError):
    pass


class NotASublocaleError(SiteCalcError):
    def __init__(self, message, a=None, m=None, result=None, witness=None):
        super().__init__(message, witness)
        self.a = a
        self.m = m
        self.result = result


class FunctorialityError(SiteCalcError):
    def __init__(self, message, r=None, q=None, p=None, witness=None):
        super().__init__(message, witness)
        self.r = r
        self.q = q
        self.p = p


class TooLargeError(SiteCalcError):
    pass


class BasePointError(SiteCalcError):
    pass
