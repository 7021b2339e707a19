"""Exception hierarchy shared by every module.

Two families matter to callers.  ``InputError`` means the data itself is
malformed (bad shapes, mismatched rings, unparseable payloads) and maps to
CLI exit code 1.  ``PreconditionError`` means the data is well formed but a
mathematical precondition fails (wild order, non-unit pivot, no convergence)
and maps to CLI exit code 2.  ``field``, ``int_field`` and ``list_field``
read required payload fields, so every loader reports a missing or
wrong-typed key as ``InputError``.
"""


class K3LiftError(Exception):
    """Base class for every error raised by this package."""

    @property
    def code(self) -> str:
        """Machine-readable error code: the exception class name."""
        return type(self).__name__


class InputError(K3LiftError):
    """Malformed or inconsistent input data."""


class ContextMismatch(InputError):
    """Operands live over different ring contexts."""


class DimensionMismatch(InputError):
    """Vector or matrix shapes do not line up."""


class PreconditionError(K3LiftError):
    """A documented mathematical precondition does not hold."""


class NonUnit(PreconditionError):
    """Inversion of an element with positive valuation."""


class NotTame(PreconditionError):
    """The order N is divisible by the residue characteristic p."""


class NotWeaklyTame(NotTame):
    """The order of the action on the slope-above-one piece is divisible by p."""


class InsufficientResidueField(PreconditionError):
    """N-th roots of unity require N | p^m - 1; enlarge the residue degree m."""


class NonSimpleRoot(PreconditionError):
    """Newton iteration needs f'(x0) to be a unit."""


class BadPairing(PreconditionError):
    """The pairing u.v must be a unit for the isotropic combination."""


class NotNearIsotropic(PreconditionError):
    """The norm u.u must be divisible by p before correction."""


class NonUnitPivot(PreconditionError):
    """Orthogonalization or elimination hit a pivot of positive valuation."""


class PrecisionLoss(PreconditionError):
    """A kernel or quotient is not well defined at the working precision."""


class DegenerateForm(PreconditionError):
    """The bilinear form is degenerate where a nondegenerate one is required."""


class ValuationViolation(PreconditionError):
    """A coordinate fails its required divisibility by p."""


class NotEigenvector(PreconditionError):
    """The supplied residue vector is not an eigenvector of the reduced matrix."""


class HodgeLineNotEigen(NotEigenvector):
    """The Hodge line is not an eigenline of the reduced isometry."""


class ProjectionCollapse(PreconditionError):
    """An averaging projector annihilated a vector it should preserve."""


class SymplecticInput(PreconditionError):
    """The non-symplectic builder received an action trivial on the Hodge line."""


class NotSymplectic(PreconditionError):
    """The symplectic builder received an action moving the Hodge line."""


class IndependenceFailure(PreconditionError):
    """Hodge line and ample class are residually dependent (Artin invariant 1)."""


class RankTooSmall(PreconditionError):
    """The fixed eigenspace is too small to host the construction."""


class NoUnitPartner(PreconditionError):
    """No vector with unit pairing against the lifted line is available."""


class NoConvergence(PreconditionError):
    """An iteration exhausted its budget without reaching a fixed point."""


class OrderViolation(InputError):
    """A declared order is not the exact multiplicative order of the matrix."""


def field(data, key: str):
    """data[key]; InputError when data is not a dict or lacks the key."""
    if not isinstance(data, dict) or key not in data:
        raise InputError(f"payload is missing required field '{key}'")
    return data[key]


def int_field(data, key: str) -> int:
    """field(data, key), which must be an integer (not a boolean)."""
    value = field(data, key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"field '{key}' must be an integer")
    return value


def list_field(data, key: str) -> list:
    """field(data, key), which must be a list."""
    value = field(data, key)
    if not isinstance(value, list):
        raise InputError(f"field '{key}' must be a list")
    return value
