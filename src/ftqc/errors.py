"""Exception hierarchy shared by every module in the package.

Three branches matter to callers:

* ``DomainError`` - a value violated an operation's precondition
  (CLI exit code 1).
* ``ConfigError`` - a run configuration could not be parsed or is
  structurally wrong (CLI exit code 2).
* ``TheoremViolationError`` - an empirical check contradicted a bound
  that is supposed to hold by construction (CLI exit code 3).  If one
  of these fires there is a bug somewhere, not a bad input.
"""


class FtqcError(Exception):
    """Base class for everything raised on purpose by this package."""


class DomainError(FtqcError):
    """A precondition on input values failed."""


class ConfigError(FtqcError):
    """A run configuration is malformed (parse error, unknown or missing key, wrong type)."""


class TheoremViolationError(FtqcError):
    """An internal consistency bound failed; indicates a bug, not bad input."""


# --- dense operator validation -------------------------------------------

class NotHermitianError(DomainError):
    """Matrix is not Hermitian within tolerance."""


class NotUnitTraceError(DomainError):
    """Matrix trace is not 1 within tolerance."""


class NotPositiveError(DomainError):
    """Matrix has an eigenvalue below the allowed floor."""


class NotUnitaryError(DomainError):
    """Matrix is not unitary within tolerance."""


class NotAnEffectError(DomainError):
    """Operator is not a valid measurement effect (eigenvalues outside [0, 1])."""


class DimensionMismatchError(DomainError):
    """Operand dimensions are inconsistent or outside supported range."""


# --- channels and circuits -------------------------------------------------

class BadStrengthError(DomainError):
    """Noise strength outside its admissible interval."""


class CircuitError(DomainError):
    """Circuit structure is invalid (unknown gate, bad target list, ...)."""


# --- computations over bitstrings ------------------------------------------

class TooManyInputsError(DomainError):
    """More input labels than the register can encode."""


class BadBitstringError(DomainError):
    """A label is not a bitstring of the expected length."""


class UnknownInputError(DomainError):
    """An input label is not part of the computation's domain."""


# --- resource planning ------------------------------------------------------

class InfeasibleError(DomainError):
    """No parameter choice can meet the request (e.g. target below intrinsic bound)."""


class AboveThresholdError(DomainError):
    """Base gate error at or above threshold; concatenation cannot reduce it."""


class CapExceededError(DomainError):
    """An ascending search hit its hard cap without finding a feasible value."""


class EvenRepetitionsError(DomainError):
    """Majority vote needs an odd number of repetitions."""


class BadProbabilityError(DomainError):
    """A probability-like value is outside its required interval."""
