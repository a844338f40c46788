"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "WorkloadError",
    "CompilationError",
    "SimulationError",
    "GAError",
    "TuningError",
    "CampaignError",
    "StoreCorruptionError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied (bad range, unknown
    scenario name, inconsistent parameter spec, ...)."""


class WorkloadError(ReproError):
    """A benchmark program could not be generated or validated."""


class CompilationError(ReproError):
    """The simulated compiler was asked to do something impossible
    (compile an unknown method, apply an invalid inline plan, ...)."""


class SimulationError(ReproError):
    """The virtual machine simulation reached an inconsistent state."""


class GAError(ReproError):
    """The genetic-algorithm engine was misconfigured or failed."""


class TuningError(ReproError):
    """The inlining tuner could not complete a tuning run."""


class CampaignError(ReproError):
    """A multi-task campaign could not be run, persisted or resumed."""


class StoreCorruptionError(ReproError):
    """The persistent evaluation store is damaged beyond the repairs
    the loader performs automatically (torn trailing line)."""
