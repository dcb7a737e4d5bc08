"""Exception types shared across the package."""


class SpectranormError(Exception):
    """Base class for every error raised by spectranorm."""


# --- eigensolver ---

class NotHermitian(SpectranormError):
    """Matrix failed the Hermitian symmetry check."""


class NoConvergence(SpectranormError):
    """Solver step cap reached or a spectral invariant check failed.

    Raised by the eigensolver kernel in `eigen` (its bisection step cap and
    spectral invariant checks); indicates a solver bug, not bad input.
    """


class NonRealRayleigh(SpectranormError):
    """All-ones Rayleigh quotient has a non-negligible imaginary part."""


# --- graphs ---

class LoopEdge(SpectranormError):
    """Edge list contains a loop (u, u)."""


class VertexOutOfRange(SpectranormError):
    """Edge endpoint outside 0..n-1."""


class MalformedGraph6(SpectranormError):
    """Input is not a valid graph6 string."""


class BadFamilyParams(SpectranormError):
    """Named graph family called with invalid parameters."""


class TooLargeForExact(SpectranormError):
    """Graph too large for the exact chromatic number search."""


class OverflowRisk(SpectranormError):
    """Closed-walk count outside the guarded length/order range."""


# --- matrix constructions ---

class NotPowerOfTwo(SpectranormError):
    """Sylvester construction needs an order that is a power of two."""


class SizeOverflow(SpectranormError):
    """Kronecker product would exceed the entry-count cap."""


class NotZeroOne(SpectranormError):
    """Matrix entries are not all 0 or 1."""


# --- bound registry ---

class PreconditionFailed(SpectranormError):
    """Subject or parameters violate a bound's precondition."""


class UnknownBoundId(SpectranormError):
    """No registry row with the requested id."""


# --- enumeration / experiments ---

class TooLarge(SpectranormError):
    """Requested order exceeds the exhaustive-enumeration cap or `graphs.MAX_ORDER`."""


# --- input parsing ---

class RaggedRows(SpectranormError):
    """Matrix CSV rows have unequal lengths."""


class BadComplexLiteral(SpectranormError):
    """Cell is not a real 'a' or complex 'a+bi' / 'a-bi' literal."""


class DomainError(SpectranormError):
    """Argument outside a function's domain (e.g. gamma at x <= 0)."""
