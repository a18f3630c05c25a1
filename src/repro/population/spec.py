"""Calibration of the synthetic hidden-service population.

Every quantity here is *ground truth at generation time*; the measurement
pipeline recovers the paper's published numbers through the same losses the
authors had:

* The port scanner achieves ~87% coverage (hosts churn across the scan
  days), so true port counts are the Fig 1 counts inflated by 1/0.87.
* The crawl runs two months later; web hosts survive with p≈0.93, SSH with
  p≈0.88, and miscellaneous ports mostly stop answering (p≈0.30 end to
  end), reproducing Table I's funnel (8,153 tried → 7,114 open → 6,579
  connectable).
* Content quotas are the Fig 2 / Section IV numbers inflated by
  1/(0.87·0.93) so the *classified* counts land on the paper's.

The derivation for each constant is in DESIGN.md §4 and EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.errors import PopulationError

# Ports with dedicated meanings in the study.
PORT_HTTP = 80
PORT_HTTPS = 443
PORT_SSH = 22
PORT_SKYNET = 55080
PORT_TORCHAT = 11009
PORT_4050 = 4050
PORT_IRC = 6667

# Candidate "other" ports (the paper saw 495 unique port numbers in total;
# beyond the seven named ones the rest spread over ~488 numbers).  A spread
# of well-known-ish and ephemeral ports; the generator draws from these.
OTHER_PORT_CANDIDATES: Tuple[int, ...] = tuple(
    [8080, 8443, 8000, 8888, 3000, 5000, 5222, 5269, 6666, 6668, 6669,
     6697, 7000, 8333, 18333, 9001, 9030, 9050, 9150, 2222, 2200, 21, 25,
     110, 143, 465, 587, 993, 995, 119, 563, 70, 79, 3128, 1080, 4444,
     5900, 5901, 6000, 3306, 5432, 27017, 11371, 64738]
    + list(range(10000, 10222))
    + list(range(20000, 20222))
    + list(range(30000, 30120))
)

# Fig 2 topic shares (percent) — they sum to 100.
TOPIC_SHARES: Dict[str, int] = {
    "adult": 17,
    "drugs": 15,
    "politics": 9,
    "counterfeit": 8,
    "anonymity": 8,
    "software_hardware": 7,
    "security": 5,
    "weapon": 4,
    "faq_tutorials": 4,
    "services": 4,
    "digital_libs": 4,
    "technology": 4,
    "hacking": 3,
    "other": 3,
    "art": 2,
    "games": 1,
    "science": 1,
    "sports": 1,
}

# Table II named head: (label, requests per 2-hour window).  Labels reuse
# the paper's service names; onion addresses are generated (v2 addresses
# cannot be forged offline, see DESIGN.md §2).
NAMED_SERVICE_RATES: Tuple[Tuple[str, int], ...] = (
    ("goldnet-1", 13714),
    ("goldnet-2", 11582),
    ("goldnet-3", 11315),
    ("goldnet-4", 7324),
    ("goldnet-5", 7183),
    ("goldnet-6", 6852),
    ("goldnet-7", 6528),
    ("goldnet-8", 4941),
    ("goldnet-9", 3000),
    ("bcmine-1", 3746),
    ("skynet-cc-1", 3678),
    ("adult-pop-1", 2573),
    ("skynet-cc-2", 1950),
    ("adult-pop-2", 1863),
    ("adult-pop-3", 1665),
    ("adult-pop-4", 1631),
    ("skynet-cc-3", 1481),
    ("skynet-cc-4", 1326),
    ("silkroad", 1175),
    ("adult-pop-5", 1094),
    ("skynet-cc-5", 1021),
    ("skynet-cc-6", 942),
    ("skynet-cc-7", 899),
    ("skynet-cc-8", 898),
    ("adult-pop-6", 889),
    ("skynet-cc-9", 781),
    ("unknown-pop-1", 746),
    ("freedom-hosting", 694),
    ("skynet-cc-10", 667),
    ("adult-pop-7", 585),
    ("adult-pop-8", 542),
    ("silkroad-wiki", 453),
    ("tordir", 255),
    ("blackmarket-reloaded", 172),
    ("duckduckgo", 55),
    ("onion-bookmarks", 30),
    ("torhost-main", 10),
)

# Section IV: there were 15 addresses with a "silkroa" prefix, at least one
# a phishing clone of the real login page (13 clones + the real market and
# the forum = 15).  This is the full-scale default; PopulationSpec scales it.
SILKROAD_PHISHING_CLONES = 13

#: Onion addresses the paper harvested on 4 Feb 2013 (Section II).
PAPER_ONIONS = 39_824


@dataclass(frozen=True)
class PopulationSpec:
    """Ground-truth quotas for one generated world (full scale by default).

    All ``*_count`` fields are *true* (generation-time) counts; see the
    module docstring for how they map to the paper's observed numbers.
    """

    # Harvest universe -------------------------------------------------- #
    total_onions: int = PAPER_ONIONS  # kept as a consistency target, see below
    dead_by_scan_count: int = 15_313  # harvested 4 Feb, gone by the scans

    # Botnets ------------------------------------------------------------ #
    skynet_bot_count: int = 15_900  # port 55080 only → found ≈ 13,854
    skynet_cc_count: int = 10
    bcmine_count: int = 2
    goldnet_front_count: int = 9
    goldnet_server_split: Tuple[int, ...] = (5, 4)  # two physical machines

    # Web sites (per true composition; see DESIGN.md derivation) --------- #
    torhost_default_count: int = 990  # default hosting page (→ ~805)
    torhost_content_count: int = 350  # real sites on TorHost
    deanon_cert_count: int = 39  # HTTPS cert names a public DNS host (→ 34)
    dual_mismatch_cert_count: int = 65  # self-signed, CN ≠ host, not TorHost
    dual_matching_cert_count: int = 25  # self-signed but CN matches host
    https_only_count: int = 110  # content sites on 443 only
    http_content_count: int = 2_196  # content sites on port 80 only
    error_page_count: int = 80  # "error message embedded in an HTML page"
    short_page_count: int = 990  # < 20 words → excluded by the crawler

    # Non-web services ---------------------------------------------------- #
    ssh_count: int = 1_400  # port 22, banner only (→ found ≈ 1,218)
    torchat_count: int = 440  # port 11009
    port4050_count: int = 158
    irc_count: int = 130
    port8080_count: int = 8  # HTTP-alt services that answer (Table I: 4)
    misc_onion_count: int = 710  # 1–2 random "other" ports each
    misc_ports_per_onion_max: int = 2

    # Content mix --------------------------------------------------------- #
    english_fraction: float = 0.808  # of real-content sites → 84% measured
    # (non-English spread uniformly over the 16 other languages)

    # Popularity ----------------------------------------------------------- #
    named_rates: Tuple[Tuple[str, int], ...] = NAMED_SERVICE_RATES
    silkroad_phishing_count: int = SILKROAD_PHISHING_CLONES
    tail_onion_count: int = 3_104
    tail_request_total: int = 44_000
    ghost_onion_count: int = 11_500
    # Phantom *fetch operations*.  A fetch for a never-published descriptor
    # fails at every responsible directory, so each one is logged ~3× (once
    # per directory tried); 250k phantom fetches therefore produce ≈ 750k
    # logged requests — the ~80% never-published share of the paper's
    # 1,031,176 logged total.
    ghost_request_total: int = 250_000

    # Churn / availability -------------------------------------------------- #
    scan_down_day_probability: float = 0.13  # → ~87% port coverage
    web_crawl_survival: float = 0.929
    https_crawl_survival: float = 0.944
    ssh_crawl_survival: float = 0.884
    misc_crawl_open: float = 0.62  # misc port still open at crawl
    misc_crawl_connect: float = 0.48  # …and answers the HTTP-ish probe

    def __post_init__(self) -> None:
        if not 0 < self.english_fraction <= 1:
            raise PopulationError(
                f"english_fraction out of range: {self.english_fraction}"
            )
        for name, value in (
            ("scan_down_day_probability", self.scan_down_day_probability),
            ("web_crawl_survival", self.web_crawl_survival),
            ("https_crawl_survival", self.https_crawl_survival),
            ("ssh_crawl_survival", self.ssh_crawl_survival),
            ("misc_crawl_open", self.misc_crawl_open),
            ("misc_crawl_connect", self.misc_crawl_connect),
        ):
            if not 0 <= value <= 1:
                raise PopulationError(f"{name} out of range: {value}")
        if sum(self.goldnet_server_split) != self.goldnet_front_count:
            raise PopulationError(
                "goldnet_server_split must sum to goldnet_front_count"
            )

    # ------------------------------------------------------------------ #

    @property
    def alive_at_scan_count(self) -> int:
        """Onions whose descriptors are still published at scan time."""
        return (
            1  # the TorHost hosting service itself
            + self.port8080_count
            + self.silkroad_phishing_count
            + self.skynet_bot_count
            + self.skynet_cc_count
            + self.bcmine_count
            + self.goldnet_front_count
            + self.torhost_default_count
            + self.torhost_content_count
            + self.deanon_cert_count
            + self.dual_mismatch_cert_count
            + self.dual_matching_cert_count
            + self.https_only_count
            + self.http_content_count
            + self.error_page_count
            + self.short_page_count
            + self.ssh_count
            + self.torchat_count
            + self.port4050_count
            + self.irc_count
            + self.misc_onion_count
            + self.no_port_count
        )

    @property
    def no_port_count(self) -> int:
        """Alive onions with no open ports at all (derived residual)."""
        accounted = (
            self.skynet_bot_count
            + self.skynet_cc_count
            + self.bcmine_count
            + self.goldnet_front_count
            + self.torhost_default_count
            + self.torhost_content_count
            + self.deanon_cert_count
            + self.dual_mismatch_cert_count
            + self.dual_matching_cert_count
            + self.https_only_count
            + self.http_content_count
            + self.error_page_count
            + self.short_page_count
            + self.ssh_count
            + self.torchat_count
            + self.port4050_count
            + self.irc_count
            + self.port8080_count
            + self.misc_onion_count
            + self.silkroad_phishing_count
            + 1  # the TorHost hosting service itself
        )
        residual = self.total_onions - self.dead_by_scan_count - accounted
        if residual < 0:
            raise PopulationError(
                "group quotas exceed total_onions - dead_by_scan_count"
            )
        return residual

    @property
    def real_content_count(self) -> int:
        """Content sites excluding TorHost default pages."""
        return (
            self.torhost_content_count
            + self.deanon_cert_count
            + self.dual_mismatch_cert_count
            + self.dual_matching_cert_count
            + self.https_only_count
            + self.http_content_count
        )

    @property
    def paper_scale(self) -> float:
        """This world's size as a share of the paper's harvest.

        Experiments scale the paper's counts by it, so a report's
        expectations follow the world it measured.
        """
        return self.total_onions / PAPER_ONIONS

    def scaled(self, scale: float) -> "PopulationSpec":
        """A proportionally smaller (or larger) world.

        Counts scale multiplicatively with a floor that keeps every group
        non-degenerate; request totals and named rates scale with volume so
        the popularity *shape* is preserved.  ``scale=1`` is the paper's
        world.
        """
        if scale <= 0:
            raise PopulationError(f"scale must be positive: {scale}")
        if scale == 1.0:
            return self

        def n(value: int, minimum: int = 1) -> int:
            return max(minimum, round(value * scale))

        goldnet = max(2, round(self.goldnet_front_count * scale))
        split_a = max(1, goldnet // 2 + goldnet % 2)
        split_b = goldnet - split_a
        if split_b == 0:
            split_a, split_b = goldnet - 1, 1
        named = tuple(
            (label, max(2, round(rate * scale))) for label, rate in self.named_rates
        )
        scaled_spec = replace(
            self,
            dead_by_scan_count=n(self.dead_by_scan_count),
            skynet_bot_count=n(self.skynet_bot_count),
            skynet_cc_count=n(self.skynet_cc_count, 2),
            bcmine_count=n(self.bcmine_count, 1),
            goldnet_front_count=goldnet,
            goldnet_server_split=(split_a, split_b),
            torhost_default_count=n(self.torhost_default_count),
            torhost_content_count=n(self.torhost_content_count),
            deanon_cert_count=n(self.deanon_cert_count, 2),
            dual_mismatch_cert_count=n(self.dual_mismatch_cert_count, 2),
            dual_matching_cert_count=n(self.dual_matching_cert_count, 1),
            https_only_count=n(self.https_only_count, 2),
            http_content_count=n(self.http_content_count, len(TOPIC_SHARES)),
            error_page_count=n(self.error_page_count, 2),
            short_page_count=n(self.short_page_count, 2),
            ssh_count=n(self.ssh_count, 2),
            torchat_count=n(self.torchat_count, 1),
            port4050_count=n(self.port4050_count, 1),
            irc_count=n(self.irc_count, 1),
            port8080_count=n(self.port8080_count, 1),
            misc_onion_count=n(self.misc_onion_count, 2),
            named_rates=named,
            silkroad_phishing_count=n(self.silkroad_phishing_count, 1),
            tail_onion_count=n(self.tail_onion_count, 10),
            tail_request_total=n(self.tail_request_total, 50),
            ghost_onion_count=n(self.ghost_onion_count, 10),
            ghost_request_total=n(self.ghost_request_total, 100),
        )
        # total_onions is a derived consistency target at non-unit scales.
        accounted = (
            scaled_spec.skynet_bot_count
            + scaled_spec.skynet_cc_count
            + scaled_spec.bcmine_count
            + scaled_spec.goldnet_front_count
            + scaled_spec.torhost_default_count
            + scaled_spec.torhost_content_count
            + scaled_spec.deanon_cert_count
            + scaled_spec.dual_mismatch_cert_count
            + scaled_spec.dual_matching_cert_count
            + scaled_spec.https_only_count
            + scaled_spec.http_content_count
            + scaled_spec.error_page_count
            + scaled_spec.short_page_count
            + scaled_spec.ssh_count
            + scaled_spec.torchat_count
            + scaled_spec.port4050_count
            + scaled_spec.irc_count
            + scaled_spec.port8080_count
            + scaled_spec.misc_onion_count
            + scaled_spec.silkroad_phishing_count
            + 1  # the TorHost hosting service itself
        )
        no_port = max(0, round(919 * scale))
        return replace(
            scaled_spec,
            total_onions=accounted + no_port + scaled_spec.dead_by_scan_count,
        )


def population_spec(
    scale: float = 1.0, spec: Optional[PopulationSpec] = None
) -> PopulationSpec:
    """The spec :func:`~repro.population.generator.generate_population`
    builds at ``scale``.

    ``spec`` defaults to the paper's full-scale spec.  Stage cache keys
    name a world by this spec and its seed, so deriving both from here
    keeps a key and the world it names from drifting apart.
    """
    return (spec if spec is not None else PopulationSpec()).scaled(scale)
