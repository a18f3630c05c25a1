"""Static-analysis devtools: the ``repro lint`` determinism checker.

The whole value of this reproduction is that one integer seed replays the
paper's February-2013 measurements bit-for-bit.  That property is easy to
lose — a stray ``random.Random(0)``, a ``time.time()`` leaking wall-clock
into simulated time — so the conventions are machine-enforced.  (Stage
code fingerprints need no rule: :mod:`repro.store.keys` derives each
stage's module closure from its import statements.  Stream uniqueness,
escaping RNGs and pool-worker purity are checked at run time by
``tests/test_determinism_checks.py``.)

* :mod:`repro.devtools.registry` — rule registry and base classes;
* :mod:`repro.devtools.astcache` — parse-once AST cache every pass shares;
* :mod:`repro.devtools.rules` — per-file AST rules REP001, REP002,
  REP004, REP005 and REP008 (exception swallowing);
* :mod:`repro.devtools.layering` — which layer may import what (the
  runtime import graph and its rule REP006) and which layer may do what:
  the capability fences REP003 (wall clock), REP007 (raw concurrency),
  REP009 (ad-hoc print/timing), REP010 (raw artifact writes), REP014
  (teardown interception) and REP015 (raw sockets), one table row each;
* :mod:`repro.devtools.sarif` — byte-stable SARIF 2.1.0 rendering for CI
  annotation upload (``repro lint --format sarif``);
* :mod:`repro.devtools.autofix` — span-edit application for the
  mechanical fixes findings carry (``repro lint --fix``, REP005 today);
* :mod:`repro.devtools.baseline` — fingerprint baseline for adopting the
  linter on a codebase with pre-existing findings;
* :mod:`repro.devtools.engine` — file walking, suppression comments, and
  the ``run_lint`` entry point used by ``repro lint``.

Everything is stdlib-``ast``; there are no third-party dependencies.
"""

from repro.devtools.findings import Finding, Fix
from repro.devtools.registry import all_rules, get_rule
from repro.devtools.engine import LintReport, run_lint

__all__ = [
    "Finding",
    "Fix",
    "LintReport",
    "all_rules",
    "get_rule",
    "run_lint",
]
