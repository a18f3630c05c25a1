"""Benchmark fixtures.

The benches regenerate every table/figure at the paper's full scale; the
scan→crawl→classify campaign is shared (Fig 1, Table I and Fig 2 are stages
of one pipeline, exactly as in the paper).  Each bench writes its
paper-vs-measured report to ``benchmarks/reports/`` so EXPERIMENTS.md can be
refreshed from artifacts.

Set ``REPRO_WORKERS=N`` (or use the ``workers`` fixture) to fan the
parallel-safe stages out over a process pool; every report stays
byte-identical to the serial run — only the wall-clock moves.  Set
``REPRO_STORE=DIR`` to checkpoint the campaign's stages through
:mod:`repro.store`: a warm bench run replays cached stages instead of
recomputing them (reports stay byte-identical either way).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.pipeline import MeasurementPipeline
from repro.parallel import resolve_workers
from repro.runconfig import RunConfig
from repro.store import ArtifactStore

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


def save_report(report_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist a report artifact and echo it for ``-s`` runs."""
    report_dir.mkdir(exist_ok=True)
    (report_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n")


def save_span_report(report_dir: pathlib.Path, name: str, observer) -> None:
    """Persist a run's per-phase span-timing tree (simulated time).

    The tree shows where the campaign's simulated seconds went (the scan's
    eight days, the crawl's connect latencies) — the deterministic
    complement to the benchmark's wall-clock numbers.
    """
    from repro.obs import render_spans

    text = render_spans(observer)
    report_dir.mkdir(exist_ok=True)
    (report_dir / f"{name}_spans.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n")


def record_phase_timings(benchmark, observer) -> None:
    """Attach each top-level span's simulated duration as extra_info."""
    for span in observer.spans:
        benchmark.extra_info[f"sim_seconds[{span.name}]"] = span.duration


@pytest.fixture(scope="session")
def workers():
    """Worker count under bench: $REPRO_WORKERS, else serial."""
    return resolve_workers(None)


@pytest.fixture(scope="session")
def store():
    """Artifact store under bench: $REPRO_STORE, else off."""
    directory = RunConfig.resolve({"store_dir": None}).store_dir
    return ArtifactStore(directory) if directory else None


@pytest.fixture(scope="session")
def full_pipeline(workers, store):
    """Full-scale (39,824-onion) scan/crawl/classify campaign."""
    return MeasurementPipeline(seed=0, scale=1.0, workers=workers, store=store)


@pytest.fixture(scope="session")
def report_dir():
    REPORT_DIR.mkdir(exist_ok=True)
    return REPORT_DIR
