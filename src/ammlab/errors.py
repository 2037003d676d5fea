"""Exception types shared across the pool engines and the numeric solvers."""
from __future__ import annotations


class AmmError(Exception):
    """Base class for every domain error raised by this package."""


class IdenticalAssets(AmmError):
    """A swap named the same asset as both input and output."""


class ReserveDepletion(AmmError):
    """A trade or liquidity change would drive a reserve to zero or below."""


class NoSolution(AmmError):
    """The implicit equation has no root in the admissible region."""


class ConvergenceFailure(AmmError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class InvalidBracket(AmmError):
    """A root bracket whose endpoints do not straddle a sign change."""


class DegenerateGradient(AmmError):
    """A partial of a spot rate is zero: no rate, or a rate of zero."""


class InfeasibleTrade(AmmError):
    """A nonzero input produced a zero output, leaving slippage undefined."""


class ConservationViolation(AmmError, ValueError):
    """Reserves lie off the conservation curve of the constants stored with
    them; a ValueError too, as the value of a state is at fault."""


class DomainError(AmmError, ValueError):
    """An argument lies outside the domain of a formula or rule; a ValueError too."""


class AssetIndexError(AmmError, IndexError):
    """An index names no asset of the pool; an IndexError too."""


class SingularAmplification(AmmError):
    """The PMM quadratic branch was requested at A = 1, where its leading
    coefficient vanishes; callers should use the analytic limit instead."""


class NonPositiveState(AmmError):
    """A state quantity that must stay positive was given as zero or less."""


class SupplyDepletion(AmmError):
    """A sell asked for at least the whole outstanding token supply."""


class NotApplicable(AmmError):
    """The requested analysis is undefined for this pool family."""
