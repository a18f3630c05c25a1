"""The simulator loads when a stage computes, never at import; numpy never.

A warm ``repro all`` replays every checkpointed stage from the store and
calls no simulator, so it must not pay its import time and memory.  The
batch kernels are pure Python, so no run loads numpy, even when it is
installed.  Each check runs in a fresh interpreter: the test process
itself has long since imported the simulator through other tests.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Modules only a store miss runs: a replay whose every stage hits must
#: load none of them.
SIMULATOR = (
    "repro.tornet",
    "repro.worldbuild",
    "repro.population.generator",
    "repro.trawl.attack",
    "repro.client.workload",
    "repro.dirauth.authority",
)


def _imported(stderr, module):
    """Whether ``-X importtime`` output shows ``module`` being imported."""
    pattern = rf"^import time:.*\|\s*{re.escape(module)}$"
    return re.search(pattern, stderr, re.MULTILINE) is not None


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
    # The CLI and the experiments load no simulator; the service may, but
    # none of the three loads numpy.
    done = _python(
        "-c",
        "import json, sys, repro.cli, repro.experiments.pipeline, "
        "repro.experiments.fig1_ports, repro.experiments.fig2_topics, "
        "repro.experiments.fig3_geomap, repro.experiments.harvest, "
        "repro.experiments.sec7_tracking, repro.experiments.table1_http, "
        "repro.experiments.table2_popularity; "
        f"simulator = sorted(set({SIMULATOR!r}) & set(sys.modules)); "
        "import repro.service; "
        "print(json.dumps([simulator, 'numpy' in sys.modules]))",
        cwd=tmp_path,
    )
    assert json.loads(done.stdout) == [[], False]


def test_warm_replay_never_loads_numpy(tmp_path):
    store = tmp_path / "store"
    cold = _repro_all(store, tmp_path)
    warm = _repro_all(store, tmp_path)
    for module in ("numpy",) + SIMULATOR:
        assert not _imported(warm.stderr, module), module
    # The cold run computes, so the check above can see these modules.
    for module in SIMULATOR:
        assert _imported(cold.stderr, module), module
    # Every batch kernel ran in the cold run, none of them on numpy.
    assert not _imported(cold.stderr, "numpy")
