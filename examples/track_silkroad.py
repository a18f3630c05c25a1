#!/usr/bin/env python3
"""Detect who tracked Silk Road (the Section VII pipeline).

Builds a 33-month consensus history (reduced honest-relay scale) with the
three tracking episodes the paper found injected, then runs the five-rule
analyzer year by year — without access to the injection ground truth — and
prints what it convicts.

Run:  python examples/track_silkroad.py
"""

from repro.detection.analyzer import TrackingAnalyzer
from repro.detection.silkroad import SilkroadStudy
from repro.detection.study import SilkroadStudyConfig
from repro.sim.clock import parse_date

SEED = 3
SCALE = 0.3  # honest-relay population scale (full = 757 → 1,862 HSDirs)

YEARS = (
    ("year 1", "2011-02-01", "2011-12-31"),
    ("year 2", "2012-01-01", "2012-12-31"),
    ("year 3", "2013-01-01", "2013-10-31"),
)


def main() -> None:
    print("building 33 months of consensus history…")
    study = SilkroadStudy(SilkroadStudyConfig(scale=SCALE, seed=SEED))
    # The analyzer reads each consensus as it is built; none is archived.
    analyzer = TrackingAnalyzer(
        (study.silkroad_onion, parse_date(start), parse_date(end))
        for _, start, end in YEARS
    )
    consensuses = 0

    def observe(consensus) -> None:
        nonlocal consensuses
        consensuses += 1
        analyzer.observe(consensus)

    world = study.build(on_consensus=observe)
    print(f"  {consensuses} consensuses, target {world.silkroad_onion}")

    for label, start, end in YEARS:
        report = analyzer.analyze(
            world.silkroad_onion, parse_date(start), parse_date(end)
        )
        print(f"\n== {label} ==  ({report.periods_analyzed} periods, "
              f"mean ring size {report.mean_hsdir_count:.0f}, "
              f"frequency threshold μ+3σ = {report.frequency_threshold:.1f})")
        likely = report.likely_trackers()
        if not likely:
            print("  no likely trackers (fingerprint+distance criterion)")
        for server, flags in sorted(likely.items()):
            record = report.servers[server]
            print(f"  CONVICTED {sorted(record.nicknames)}  flags={flags}")
            print(f"    periods responsible: {record.periods_responsible}, "
                  f"max ratio: {record.max_ratio:,.0f}, "
                  f"fresh-fingerprint events: {record.fresh_fingerprint_events}")
        for period_start, servers in report.full_takeovers():
            names = set()
            for server in servers:
                names |= report.servers[server].nicknames
            from repro.sim.clock import format_date

            print(f"  FULL TAKEOVER on {format_date(period_start)}: "
                  f"all six responsible slots held by {sorted(names)}")

    print("\nground truth (not used by the analyzer):")
    for entity, servers in sorted(world.ground_truth.items()):
        print(f"  {entity}: {len(servers)} server(s)")


if __name__ == "__main__":
    main()
