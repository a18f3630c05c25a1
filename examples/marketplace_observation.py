#!/usr/bin/env python3
"""Identify marketplace sellers by their visit patterns (§VI application).

"Buyers visit Silk Road occasionally while sellers visit it periodically to
update their product pages and check on orders."  The attacker positions
itself as all six responsible directories of the marketplace (descriptor
IDs are predictable) plus a slice of guard capacity, watches a week of
traffic, and separates the recurring visitors from the one-off ones.

Run:  python examples/marketplace_observation.py
"""

from repro.experiments.sec6_sellers import run_sec6

SEED = 17


def main() -> None:
    result = run_sec6(
        seed=SEED,
        honest_relays=400,
        attacker_guards=14,
        buyer_count=600,
        seller_count=40,
        observation_days=7,
        seller_visits_per_day=4,
    )
    print(result.report.format())

    ident = result.identification
    print(f"\ncaptured clients : {result.captures} observations")
    print(f"flagged as sellers: {len(ident.identified_sellers)} "
          f"(true positives: {ident.true_positives})")
    print(f"precision         : {ident.precision:.0%}")

    print("\nWhy precision is structural: a buyer visits a couple of times, "
          "so even full capture of their traffic never looks periodic; a "
          "seller checking orders four times a day crosses the "
          "multi-day/multi-visit threshold as soon as one of their three "
          "pinned guards is the attacker's.")
    print("Guards re-roll every 30-60 days, so the capturable share "
          "compounds across rotations (see "
          "benchmarks/bench_ablation_guard_rotation.py).")


if __name__ == "__main__":
    main()
