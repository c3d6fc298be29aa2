"""Exception hierarchy shared by every module in the package.

Three branches matter to callers:

* ``DomainError`` - a value violated an operation's precondition
  (CLI exit code 1).
* ``ConfigError`` - a run configuration could not be parsed or is
  structurally wrong (CLI exit code 2).
* ``TheoremViolationError`` - an empirical check contradicted a bound
  that is supposed to hold by construction (CLI exit code 3).  If one
  of these fires there is a bug somewhere, not a bad input.

The argument rules that every module applies live here too, one definition
each, loading no NumPy: ``_check_count`` (a Python or NumPy integer, not a
bool, in ``[lo, cap]``, returned as an ``int``), ``_check_unit_interval``
(a real number in the unit interval, returned as a ``float``), ``_as_float``
(a real number as a ``float``, NaN for anything else), ``_is_index`` (whether
a value is such an integer), ``_check_type`` (an instance of one of the
package's types, refused with a ``DomainError`` naming them) and ``_shown``
(how a refusal prints a caller's value).  Each check raises the error class
its caller names.  ``_SetOnce`` is the base of the validated value types.
"""

import operator


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


# --- argument rules -------------------------------------------------------------

def _shown(value) -> str:
    """repr, but a NumPy integer as the int it equals, and an int past 64 bits,
    alone or in a tuple, by sign and size: str() refuses an int of 4300+ digits."""
    if isinstance(value, tuple):
        return f"({', '.join(map(_shown, value))}{',' if len(value) == 1 else ''})"
    if _is_index(value):
        value = operator.index(value)
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"
    return repr(value)


def _is_index(x) -> bool:
    """A Python or NumPy integer (what operator.index takes), not a bool of either."""
    # NumPy's bool has no __index__ from 2.0 on and a deprecated one before
    if isinstance(x, bool) or getattr(x, "dtype", None) == bool:
        return False
    try:
        operator.index(x)
    except TypeError:
        return False
    return True


def _check_count(value, name: str, lo: int | None, cap, error) -> int:
    """value as a Python int; error unless it is an integer in [lo, cap]
    (lo or cap None: no bound on that side)."""
    n = value if type(value) is int else int(operator.index(value)) if _is_index(value) else None
    if n is None or (lo is not None and n < lo):
        kinds = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}
        kind = kinds.get(lo, f"an integer >= {lo}")
        raise error(f"{name} must be {kind}, got {_shown(value)}")
    if cap is not None and n > cap:
        raise error(f"{name} = {_shown(n)} exceeds the cap of {cap}")
    return n


def _check_type(value, kinds: tuple, name: str):
    """value, if an instance of one of `kinds`; DomainError naming them for anything else."""
    if not isinstance(value, kinds):
        wanted = " or ".join(k.__name__ for k in kinds)
        raise DomainError(f"{name} must be a {wanted}, got {type(value).__name__}")
    return value


class _SetOnce:
    """Slots that take one assignment each, while unset, as pickle and copy
    fill them too; a later assignment or a deletion raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _as_float(value) -> float:
    """float(value), or NaN, which fails every range test, for what float() refuses,
    for what has neither __float__ nor __index__ (float() parses text in a buffer),
    and for text and complex numbers, which float() would parse or truncate."""
    kind = getattr(getattr(value, "dtype", None), "kind", None)  # "c" for a NumPy complex
    real = hasattr(type(value), "__float__") or hasattr(type(value), "__index__")
    if not real or kind == "c" or isinstance(value, (str, bytes)):  # NumPy text has __float__
        return float("nan")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return float("nan")


def _check_unit_interval(name: str, value, lo_open=True, hi_open=True, error=BadProbabilityError) -> float:
    """value as a float inside the unit interval, each end open or closed;
    error for anything else, including what float() refuses."""
    v = _as_float(value)
    if not ((v > 0.0 if lo_open else v >= 0.0) and (v < 1.0 if hi_open else v <= 1.0)):
        shown = _shown(value) if isinstance(value, (int, str)) else value
        raise error(f"{name} = {shown} outside {'(' if lo_open else '['}0, 1{')' if hi_open else ']'}")
    return v
