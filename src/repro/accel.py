"""numpy for the batch kernels, imported on the first kernel call.

The ring-placement kernels in :mod:`repro.crypto.ring`, the packed-log
kernels in :mod:`repro.popularity.timeseries` and the observation pass in
:mod:`repro.trawl.harvest` run on numpy when it is installed and on their
complete scalar loops when it is not.  Importing numpy costs ~0.15 s and
~12 MB of peak memory (2-vCPU host, Python 3.11), so no module imports it
at load time: a run that calls no kernel — a ``repro all`` replayed from
the store — never pays for it.
"""

from __future__ import annotations

import functools
from types import ModuleType
from typing import Optional


@functools.lru_cache(maxsize=1)
def numpy() -> Optional[ModuleType]:
    """The numpy module, imported on first call; None when not installed.

    Kernels call this only after their small-input early exits, and take
    their scalar path on None.  Tests patch this attribute to force it.
    """
    try:
        import numpy as module
    except ImportError:
        return None
    return module
