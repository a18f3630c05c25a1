"""Deterministic simulation substrate: simulated time and seeded randomness.

The rest of the library never reads wall-clock time or the global
:mod:`random` state.  All time comes from a :class:`~repro.sim.clock.SimClock`
that experiments advance step by step, and all randomness comes from
:func:`~repro.sim.rng.derive_rng`, so every experiment is reproducible from a
single integer seed.
"""
