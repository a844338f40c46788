"""Fault tolerance for long-running tuning campaigns.

The supervision layer around the campaign runner, the batched
evaluators and the persistence layer:

* :mod:`repro.resilience.supervisor` — the one supervision loop
  campaigns and the service run their cells on: bounded retries with
  backoff + jitter, per-cell timeouts, worker-death detection with
  pool rebuild, structured
  :class:`~repro.resilience.supervisor.FailureReport` accounting;
* :mod:`repro.resilience.faults` — a deterministic, seeded fault
  injector (worker kill, evaluator exception, torn store write, slow
  task) used by ``tests/resilience`` to prove every recovery path.

The package re-exports nothing: callers import the module they need,
so that importing the store tier (which needs only
:mod:`~repro.resilience.faults`) does not load the supervisor and
:mod:`multiprocessing`.  Campaigns resume through their store tier
alone (:mod:`repro.perf.storetier`); no other resume record exists.

See ``docs/RESILIENCE.md`` for the supervision model and the recovery
semantics.
"""
