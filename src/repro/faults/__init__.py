"""Deterministic fault injection and retry for the measurement pipeline.

A :class:`~repro.faults.plan.FaultPlan` decides — purely from ``(seed,
onion, port, attempt)`` — which probes fail and how;
:class:`~repro.faults.transport.FaultInjectingTransport` applies those
decisions behind the ordinary transport interface; and
:class:`~repro.faults.retry.RetryPolicy` gives consumers a bounded,
seed-replayable way to recover.  Failures are accounted in a
:class:`~repro.faults.taxonomy.FailureTaxonomy` so reports can show what
was transient, what was exhausted, and what was truly gone.
"""
