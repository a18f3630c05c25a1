"""One driver per paper table/figure (see DESIGN.md §4).

Each module exposes a ``run_*`` function returning a typed report plus an
:class:`~repro.analysis.report.ExperimentReport` with paper-vs-measured
rows.  Benchmarks call these drivers; examples use smaller slices of the
same code.
"""
