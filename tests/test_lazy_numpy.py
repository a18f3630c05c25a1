"""numpy loads at the first batch-kernel call, never at import.

A warm ``repro all`` replays every checkpointed stage from the store and
calls no kernel, so it must not pay numpy's import time and memory.  Each
check runs in a fresh interpreter: the test process itself has long since
imported numpy through other tests.
"""

import importlib.util
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_NUMPY_IMPORT = re.compile(r"^import time:.*\|\s*numpy$", re.MULTILINE)


def _python(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )


def _repro_all(store, cwd):
    # Explicit workers, faults and store: the suite may run under
    # REPRO_WORKERS / REPRO_FAULTS / REPRO_STORE, which must not leak in.
    return _python(
        "-X", "importtime", "-m", "repro", "all", "--scale", "0.01",
        "--seed", "0", "--workers", "1", "--fault-profile", "none",
        "--store", str(store),
        cwd=cwd,
    )


def test_importing_the_entry_points_leaves_numpy_unloaded(tmp_path):
    done = _python(
        "-c",
        "import sys, repro.cli, repro.experiments, repro.service; "
        "print('numpy' in sys.modules)",
        cwd=tmp_path,
    )
    assert done.stdout.strip() == "False"


def test_warm_replay_never_loads_numpy(tmp_path):
    store = tmp_path / "store"
    cold = _repro_all(store, tmp_path)
    warm = _repro_all(store, tmp_path)
    assert _NUMPY_IMPORT.search(warm.stderr) is None
    if importlib.util.find_spec("numpy") is not None:
        # The cold run's kernels still take the numpy path.
        assert _NUMPY_IMPORT.search(cold.stderr) is not None
