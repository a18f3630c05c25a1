"""Deterministic discrete-event simulation substrate.

The rest of the library never reads wall-clock time or the global
:mod:`random` state.  All time comes from a :class:`~repro.sim.clock.SimClock`
driven by an :class:`~repro.sim.engine.EventEngine`, and all randomness comes
from :func:`~repro.sim.rng.derive_rng`, so every experiment is reproducible
from a single integer seed.
"""
