"""Name -> strategy class registry.

Lazy by design: importing :mod:`repro.search` must not pull in numpy's
heavier strategy modules (or ``repro.ga.engine``, which ``ga`` needs for
its config) until a strategy is actually requested.  Every strategy
searches the paper's five-parameter space for one scalar fitness, but
their constructors take different budgets (the GA a
:class:`~repro.ga.engine.GAConfig`, the others an evaluation count), so
the registry resolves classes, not instances.
:meth:`repro.core.tuner.InliningTuner.tune` is the place where
per-name construction for the paper's tuning problem lives.
"""

from __future__ import annotations

from importlib import import_module
from typing import Tuple, Type

from repro.errors import GAError
from repro.search.base import SearchStrategy

__all__ = ["STRATEGY_NAMES", "DEFAULT_STRATEGY", "strategy_class"]

#: every selectable strategy, in documentation order
STRATEGY_NAMES: Tuple[str, ...] = ("ga", "cmaes", "bandit")

DEFAULT_STRATEGY = "ga"

_MODULES = {
    "ga": ("repro.search.ga", "GAStrategy"),
    "cmaes": ("repro.search.cmaes", "CMAESStrategy"),
    "bandit": ("repro.search.bandit", "BanditHalvingStrategy"),
}


def strategy_class(name: str) -> Type[SearchStrategy]:
    """Resolve a strategy name to its class (imports lazily)."""
    try:
        module_name, class_name = _MODULES[name]
    except KeyError:
        raise GAError(
            f"unknown search strategy {name!r}; expected one of "
            f"{', '.join(STRATEGY_NAMES)}"
        ) from None
    module = import_module(module_name)
    return getattr(module, class_name)
