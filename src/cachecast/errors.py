"""Exception taxonomy shared across the package.

Validation errors mean the caller handed us an ill-formed scenario or an
argument outside a documented domain; solver errors mean a linear program
misbehaved numerically or reported an unexpected status.  The CLI maps the
two bases to distinct exit codes.
"""


class CachecastError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CachecastError):
    """Input fails a documented precondition."""


class SolverError(CachecastError):
    """A linear program could not be solved as required."""


# -- channel statistics ------------------------------------------------------

class NotMonotone(ValidationError):
    """A per-user level distribution is not nonincreasing in the level."""


class OutOfRange(ValidationError):
    """A probability or parameter lies outside its admissible interval."""


class LengthMismatch(ValidationError):
    """Row lengths or vector lengths disagree with the declared dimensions."""


class WrongType(ValidationError):
    """An argument is not of its documented type: a CCDF entry or weight
    that is not a number, a use count or seed that is not an integer."""


# -- caching -----------------------------------------------------------------

class EmptySubset(ValidationError):
    """A user subset that must be nonempty is empty."""


class TooManyUsers(ValidationError):
    """The user count exceeds the supported cap."""


class MuOutOfRange(ValidationError):
    """The normalized cache size is outside the domain of the requested op."""


class NonIntegerT(ValidationError):
    """K*mu is not an integer where an integer subpacketization is required."""


class BadT(ValidationError):
    """The subset-size parameter t is outside {0, ..., K-1}."""


# -- linear programming ------------------------------------------------------

class NumericalFailure(SolverError):
    """The simplex could not find an acceptable pivot or failed to converge."""


class UnexpectedLpStatus(SolverError):
    """An LP that must be solvable came back infeasible or unbounded."""


# -- rate computations -------------------------------------------------------

class NotTwoUser(ValidationError):
    """A two-user routine received a scenario with K != 2."""


class ZeroDenominator(ValidationError):
    """A weighted bound denominator vanished (no user carries weight)."""


class NotDegraded(ValidationError):
    """No user ordering makes the level distributions a dominance chain."""


class InfeasibleZ(ValidationError):
    """A per-user time-share matrix cannot be mapped to subset shares."""


class InfeasibleAllocation(ValidationError):
    """A delivery allocation violates its feasibility constraints."""
