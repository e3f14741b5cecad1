"""Exception hierarchy for the HSS reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
being able to discriminate the failure domain (BSP runtime vs. algorithm
configuration vs. verification).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "BSPError",
    "CollectiveMismatchError",
    "DeadlockError",
    "ConfigError",
    "CapabilityError",
    "CalibrationError",
    "VerificationError",
    "LoadBalanceError",
    "WorkloadError",
]


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class BSPError(ReproError):
    """Generic failure inside the BSP simulation engine.

    ``ranks`` names the ranks whose request was at fault, when known
    (e.g. an ``alltoallv`` whose send counts do not match its buffer).
    """

    ranks: tuple[int, ...] = ()


class CollectiveMismatchError(BSPError):
    """Raised when ranks of an SPMD program disagree on the next collective.

    The BSP engine requires every live rank to issue the *same* collective
    (same operation name, same root) at each rendezvous.  A mismatch means
    the user program is not SPMD-consistent — the simulated analogue of an
    MPI program deadlocking because ranks called different collectives.

    Structured fields (``None``/empty when not applicable) mirror the
    message so chaos tooling and tests need not parse text:

    * ``superstep`` — rendezvous index at which the mismatch was detected.
    * ``ranks`` — the full set of mismatched ranks (not the truncated
      preview the message shows).
    """

    superstep: int | None = None
    ranks: tuple[int, ...] = ()


class DeadlockError(BSPError):
    """Raised when some ranks finished while others still wait on a collective.

    Structured fields (``None``/empty when not applicable):

    * ``superstep`` — rendezvous index at which the deadlock was detected.
    * ``finished_ranks`` — ranks whose programs already returned.
    * ``stuck_ranks`` — ranks still waiting on a collective.
    """

    superstep: int | None = None
    finished_ranks: tuple[int, ...] = ()
    stuck_ranks: tuple[int, ...] = ()


class ConfigError(ReproError):
    """Invalid algorithm configuration (bad epsilon, rounds, layout, ...)."""


class CapabilityError(ConfigError):
    """An algorithm was asked for something its spec says it cannot do.

    Raised *before* any simulation runs — e.g. payloads handed to an
    algorithm whose :class:`~repro.algorithms.AlgorithmSpec` declares
    ``supports_payloads=False``, or a node-partitioned algorithm run on a
    single-core machine.  Subclasses :class:`ConfigError` so existing
    ``except ConfigError`` handlers keep working.
    """


class CalibrationError(ConfigError):
    """A machine-constant fit cannot be trusted.

    Raised by :mod:`repro.calibrate` when the design of experiments does
    not *identify* a constant (its feature column is all-zero or linearly
    dependent, so any value fits equally well) or when the solved system
    is otherwise ill-conditioned.  The message always names the
    unidentifiable constant(s); ``constants`` carries them structurally.
    Subclasses :class:`ConfigError` so the CLI's exit-2 usage-error
    handling applies unchanged.
    """

    constants: tuple[str, ...] = ()


class VerificationError(ReproError):
    """An output verification failed (not globally sorted, lost keys, ...)."""


class LoadBalanceError(VerificationError):
    """Sorted output violated the requested ``(1 + eps)`` load-balance bound."""


class WorkloadError(ReproError):
    """A workload generator was asked for something it cannot produce."""
