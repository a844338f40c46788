"""Fault tolerance for long-running tuning campaigns.

The supervision layer around the campaign runner, the batched
evaluators and the persistence layer:

* :mod:`repro.resilience.supervisor` — bounded retries with backoff +
  jitter, per-task timeouts, worker-death detection with pool rebuild,
  structured :class:`FailureReport` accounting;
* :mod:`repro.resilience.manifest` — crash-safe campaign manifests and
  per-task GA checkpoints for ``repro campaign --resume``;
* :mod:`repro.resilience.faults` — a deterministic, seeded fault
  injector (worker kill, evaluator exception, torn store write, slow
  task) used by ``tests/resilience`` to prove every recovery path.

See ``docs/RESILIENCE.md`` for the supervision model and the recovery
semantics.
"""

from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    clear_fault_plan,
    get_fault_injector,
    install_fault_plan,
)
from repro.resilience.manifest import (
    CampaignManifest,
    campaign_fingerprint,
    checkpoint_path_for,
)
from repro.resilience.supervisor import (
    FailureReport,
    RetryPolicy,
    run_supervised,
    run_supervised_serial,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "install_fault_plan",
    "clear_fault_plan",
    "get_fault_injector",
    "CampaignManifest",
    "campaign_fingerprint",
    "checkpoint_path_for",
    "FailureReport",
    "RetryPolicy",
    "run_supervised",
    "run_supervised_serial",
]
