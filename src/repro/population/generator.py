"""Builds the synthetic hidden-service world.

:func:`generate_population` turns a :class:`~repro.population.spec.PopulationSpec`
into ~40k concrete hidden services — keys, hosts, endpoints, page content,
certificates, botnet behaviours, availability windows — plus the ground-truth
indexes the tests validate against and the workload builder for Section V.

The generator is the *only* component allowed to see everything at once;
measurement code receives just the onion registry (point lookups) and the
network facade.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.client.workload import WorkloadSpec
from repro.crypto.keys import KeyPair
from repro.crypto.onion import OnionAddress, onion_address_from_key
from repro.errors import PopulationError
from repro.hs.service import HiddenService
from repro.net.endpoint import ServiceEndpoint, SimpleHost
from repro.net.transport import OnionRegistry
from repro.population import botnets
from repro.population.content import (
    ssh_banner,
    synth_error_page,
    synth_language_page,
    synth_short_page,
    synth_topic_page,
    wrap_html,
)
from repro.population.corpus import (
    NON_ENGLISH_LANGUAGES,
    TORHOST_DEFAULT_PAGE,
)
from repro.population.spec import (
    OTHER_PORT_CANDIDATES,
    PORT_4050,
    PORT_HTTP,
    PORT_HTTPS,
    PORT_IRC,
    PORT_SSH,
    PORT_TORCHAT,
    TOPIC_SHARES,
    PopulationSpec,
    population_spec,
)
from repro.population.webserver import StaticSite, TlsCertificate
from repro.sim.clock import DAY, Timestamp, day_number, parse_date
from repro.sim.rng import derive_rng

# Default timeline (the paper's calendar).
HARVEST_DATE = parse_date("2013-02-04")
SCAN_START = parse_date("2013-02-14")
SCAN_END = parse_date("2013-02-21")  # inclusive: 8 scan days
CRAWL_DATE = parse_date("2013-04-15")


@dataclass
class HiddenServiceRecord:
    """One generated hidden service with its ground-truth annotations."""

    service: HiddenService
    group: str
    label: str = ""
    topic: Optional[str] = None
    language: Optional[str] = None
    content_kind: str = "none"  # topic | default | short | error | banner | goldnet | none

    @property
    def onion(self) -> OnionAddress:
        """The record's onion address."""
        return self.service.onion


@dataclass
class GeneratedPopulation:
    """The generated world plus ground-truth indexes."""

    spec: PopulationSpec
    seed: int
    records: List[HiddenServiceRecord]
    registry: OnionRegistry
    named_onions: Dict[str, OnionAddress]
    ghost_onions: List[OnionAddress]
    tail_onions: List[OnionAddress]
    harvest_date: Timestamp = HARVEST_DATE
    scan_start: Timestamp = SCAN_START
    scan_end: Timestamp = SCAN_END
    crawl_date: Timestamp = CRAWL_DATE
    _by_onion: Dict[OnionAddress, HiddenServiceRecord] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self._by_onion:
            self._by_onion = {record.onion: record for record in self.records}

    @property
    def services(self) -> List[HiddenService]:
        """All generated hidden services."""
        return [record.service for record in self.records]

    @property
    def all_onions(self) -> List[OnionAddress]:
        """Every published onion address (what a full harvest would yield)."""
        return [record.onion for record in self.records]

    def record_for(self, onion: OnionAddress) -> Optional[HiddenServiceRecord]:
        """Ground-truth record behind ``onion`` (tests only)."""
        return self._by_onion.get(onion)

    def descriptor_available(self, onion: OnionAddress, now: Timestamp) -> bool:
        """Whether ``onion``'s descriptor is fetchable at ``now``.

        Availability tracks the publication window: a service that stopped
        publishing has no current descriptor (the 24-hour tail after death
        is below the resolution of the multi-day scan schedule).
        """
        record = self._by_onion.get(onion)
        if record is None:
            return False
        return record.service.is_online(now)

    def records_in_group(self, group: str) -> List[HiddenServiceRecord]:
        """All records with ground-truth group ``group``."""
        return [record for record in self.records if record.group == group]

    def build_workload_spec(
        self,
        window_start: Timestamp,
        window_end: Timestamp,
        client_count: int = 500,
    ) -> WorkloadSpec:
        """The Section V client workload for a harvest window."""
        named_rates = {
            self.named_onions[label]: rate
            for label, rate in self.spec.named_rates
            if label in self.named_onions
        }
        return WorkloadSpec(
            window_start=window_start,
            window_end=window_end,
            named_rates=named_rates,
            tail_onions=list(self.tail_onions),
            tail_total=self.spec.tail_request_total,
            ghost_onions=list(self.ghost_onions),
            ghost_total=self.spec.ghost_request_total,
            client_count=client_count,
        )


class _Builder:
    """Stateful helper that accumulates records while generating."""

    def __init__(self, spec: PopulationSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.records: List[HiddenServiceRecord] = []
        self.registry = OnionRegistry()
        self.named_onions: Dict[str, OnionAddress] = {}
        self._keys_rng = derive_rng(seed, "population", "keys")
        self._scan_days = [
            day_number(SCAN_START) + offset
            for offset in range((SCAN_END - SCAN_START) // DAY + 1)
        ]

    # -- primitives ---------------------------------------------------- #

    def _new_service(
        self,
        host: SimpleHost,
        online_until: Optional[Timestamp],
        birth_rng: random.Random,
        keypair: Optional[KeyPair] = None,
    ) -> HiddenService:
        if keypair is None:
            keypair = KeyPair.generate(self._keys_rng)
        online_from = HARVEST_DATE - birth_rng.randint(10, 400) * DAY
        host.online_from = online_from
        host.online_until = online_until
        return HiddenService(
            keypair=keypair,
            host=host,
            online_from=online_from,
            online_until=online_until,
        )

    def _add(self, record: HiddenServiceRecord) -> HiddenServiceRecord:
        self.records.append(record)
        self.registry.register(record.onion, record.service.host)
        return record

    def _survival_until(
        self, rng: random.Random, survives_crawl: bool
    ) -> Optional[Timestamp]:
        """Death time for scan-alive hosts: None if alive at crawl."""
        if survives_crawl:
            return None
        # Dies after the scan window but before the crawl.
        span = (CRAWL_DATE - DAY) - (SCAN_END + DAY)
        return SCAN_END + DAY + rng.randrange(max(1, span))

    def _scan_down_days(self, rng: random.Random) -> frozenset:
        p = self.spec.scan_down_day_probability
        return frozenset(day for day in self._scan_days if rng.random() < p)

    def _mint_cert_onion(self) -> OnionAddress:
        """A fresh onion address used only as a certificate CN."""
        return onion_address_from_key(self._keys_rng.randbytes(140))

    # -- groups ---------------------------------------------------------- #

    def build_dead(self) -> None:
        """Services harvested on 4 Feb but gone before the scans."""
        rng = derive_rng(self.seed, "population", "dead")
        for _ in range(self.spec.dead_by_scan_count):
            host = SimpleHost()
            death = HARVEST_DATE + DAY + rng.randrange(8 * DAY)
            service = self._new_service(host, death, rng)
            self._add(HiddenServiceRecord(service=service, group="dead"))

    def build_no_port(self) -> None:
        """Alive services with no open ports at all."""
        rng = derive_rng(self.seed, "population", "no-port")
        for _ in range(self.spec.no_port_count):
            host = SimpleHost(down_days=self._scan_down_days(rng))
            service = self._new_service(host, None, rng)
            self._add(HiddenServiceRecord(service=service, group="no-port"))

    def build_skynet(self) -> None:
        """Skynet bots (port 55080) and the popular C&C / BcMine services."""
        rng = derive_rng(self.seed, "population", "skynet")
        for bot_id in range(self.spec.skynet_bot_count):
            host = botnets.make_skynet_bot_host(bot_id, 0, None)
            host.down_days = self._scan_down_days(rng)
            service = self._new_service(host, None, rng)
            self._add(HiddenServiceRecord(service=service, group="skynet-bot"))
        for index in range(self.spec.skynet_cc_count):
            host = SimpleHost()
            host.add_endpoint(
                ServiceEndpoint(
                    port=PORT_HTTP,
                    protocol="http",
                    application=StaticSite(
                        html=wrap_html("", synth_short_page(rng)), title=""
                    ),
                )
            )
            service = self._new_service(host, None, rng)
            self._add(
                HiddenServiceRecord(
                    service=service,
                    group="skynet-cc",
                    label=f"skynet-cc-{index + 1}",
                    content_kind="short",
                )
            )
            self.named_onions[f"skynet-cc-{index + 1}"] = service.onion
        for index in range(self.spec.bcmine_count):
            host = SimpleHost()
            host.add_endpoint(
                ServiceEndpoint(
                    port=PORT_HTTP,
                    protocol="http",
                    application=StaticSite(
                        html=wrap_html("", synth_short_page(rng)), title=""
                    ),
                )
            )
            service = self._new_service(host, None, rng)
            self._add(
                HiddenServiceRecord(
                    service=service,
                    group="bcmine",
                    label=f"bcmine-{index + 1}",
                    content_kind="short",
                )
            )
            self.named_onions[f"bcmine-{index + 1}"] = service.onion

    def build_goldnet(self) -> None:
        """The nine 503-everywhere fronts on two physical machines."""
        rng = derive_rng(self.seed, "population", "goldnet")
        servers = botnets.make_goldnet_servers(
            self.spec.goldnet_server_split, HARVEST_DATE - 10 * DAY, rng
        )
        front = 0
        for server, count in zip(servers, self.spec.goldnet_server_split):
            for _ in range(count):
                front += 1
                host = botnets.make_goldnet_front_host(server, 0)
                service = self._new_service(host, None, rng)
                label = f"goldnet-{front}"
                self._add(
                    HiddenServiceRecord(
                        service=service,
                        group="goldnet",
                        label=label,
                        content_kind="goldnet",
                    )
                )
                self.named_onions[label] = service.onion

    # -- web content ------------------------------------------------------ #

    def _content_assignments(self, rng: random.Random) -> List[Tuple[str, Optional[str]]]:
        """(language, topic) pairs for every real-content site.

        English sites get Fig 2 topics; non-English sites get a language and
        no topic label (the paper only topic-classified English pages).
        """
        total = self.spec.real_content_count
        english = round(total * self.spec.english_fraction)
        non_english = total - english
        assignments: List[Tuple[str, Optional[str]]] = []
        share_total = sum(TOPIC_SHARES.values())
        allocated = 0
        topics = list(TOPIC_SHARES.items())
        for topic, share in topics[:-1]:
            count = round(english * share / share_total)
            assignments.extend(("en", topic) for _ in range(count))
            allocated += count
        last_topic = topics[-1][0]
        assignments.extend(("en", last_topic) for _ in range(english - allocated))
        for index in range(non_english):
            language = NON_ENGLISH_LANGUAGES[index % len(NON_ENGLISH_LANGUAGES)]
            assignments.append((language, None))
        rng.shuffle(assignments)
        return assignments

    def _make_site(
        self, language: str, topic: Optional[str], rng: random.Random
    ) -> StaticSite:
        words = rng.randint(60, 320)
        if language == "en" and topic is not None:
            body = synth_topic_page(topic, rng, word_count=words)
        else:
            body = synth_language_page(language, rng, word_count=words)
        return StaticSite(html=wrap_html("", body))

    def _web_record(
        self,
        group: str,
        site: StaticSite,
        rng: random.Random,
        https: bool,
        http: bool = True,
        certificate: Optional[TlsCertificate] = None,
        survival: Optional[float] = None,
        topic: Optional[str] = None,
        language: Optional[str] = None,
        content_kind: str = "topic",
    ) -> HiddenServiceRecord:
        if survival is None:
            survival = self.spec.web_crawl_survival
        host = SimpleHost(down_days=self._scan_down_days(rng))
        if http:
            host.add_endpoint(
                ServiceEndpoint(port=PORT_HTTP, protocol="http", application=site)
            )
        if https:
            https_site = StaticSite(html=site.html, certificate=certificate)
            host.add_endpoint(
                ServiceEndpoint(
                    port=PORT_HTTPS, protocol="https", application=https_site
                )
            )
        online_until = self._survival_until(rng, rng.random() < survival)
        service = self._new_service(host, online_until, rng)
        return self._add(
            HiddenServiceRecord(
                service=service,
                group=group,
                topic=topic,
                language=language,
                content_kind=content_kind,
            )
        )

    def build_web(self) -> None:
        """All ordinary web sites: content, TorHost, certs, short, error."""
        spec = self.spec
        rng = derive_rng(self.seed, "population", "web")
        assignments = self._content_assignments(rng)
        cursor = 0

        def next_assignment() -> Tuple[str, Optional[str]]:
            nonlocal cursor
            language, topic = assignments[cursor]
            cursor += 1
            return language, topic

        # The hosting service itself, first: its onion is the cert CN used
        # by every hosted site.
        torhost_site = self._make_site("en", "services", rng)
        torhost_record = self._web_record(
            "torhost-main",
            torhost_site,
            rng,
            https=False,
            survival=1.0,
            topic="services",
            language="en",
        )
        torhost_record.label = "torhost-main"
        self.named_onions["torhost-main"] = torhost_record.onion
        torhost_cn = torhost_record.onion

        for _ in range(spec.torhost_default_count):
            site = StaticSite(html=wrap_html("", TORHOST_DEFAULT_PAGE))
            cert = TlsCertificate(common_name=torhost_cn, self_signed=True)
            self._web_record(
                "torhost-default",
                site,
                rng,
                https=True,
                certificate=cert,
                language="en",
                content_kind="default",
            )
        for _ in range(spec.torhost_content_count):
            language, topic = next_assignment()
            site = self._make_site(language, topic, rng)
            cert = TlsCertificate(common_name=torhost_cn, self_signed=True)
            self._web_record(
                "torhost-content",
                site,
                rng,
                https=True,
                certificate=cert,
                topic=topic,
                language=language,
            )
        for index in range(spec.deanon_cert_count):
            language, topic = next_assignment()
            site = self._make_site(language, topic, rng)
            cert = TlsCertificate(
                common_name=f"shop{index}.example{index % 7}.com",
                self_signed=False,
                issuer="Example CA",
            )
            self._web_record(
                "deanon-cert",
                site,
                rng,
                https=True,
                certificate=cert,
                topic=topic,
                language=language,
            )
        for _ in range(spec.dual_mismatch_cert_count):
            language, topic = next_assignment()
            site = self._make_site(language, topic, rng)
            cert = TlsCertificate(common_name=self._mint_cert_onion(), self_signed=True)
            self._web_record(
                "dual-mismatch-cert",
                site,
                rng,
                https=True,
                certificate=cert,
                topic=topic,
                language=language,
            )
        for _ in range(spec.dual_matching_cert_count):
            language, topic = next_assignment()
            site = self._make_site(language, topic, rng)
            record = self._web_record(
                "dual-matching-cert",
                site,
                rng,
                https=False,  # placeholder; cert needs the record's onion
                topic=topic,
                language=language,
            )
            cert = TlsCertificate(common_name=record.onion, self_signed=True)
            https_site = StaticSite(html=site.html, certificate=cert)
            record.service.host.add_endpoint(
                ServiceEndpoint(port=PORT_HTTPS, protocol="https", application=https_site)
            )
        for _ in range(spec.https_only_count):
            language, topic = next_assignment()
            site = self._make_site(language, topic, rng)
            record = self._web_record(
                "https-only",
                site,
                rng,
                https=False,
                http=False,
                survival=spec.https_crawl_survival,
                topic=topic,
                language=language,
            )
            cert = TlsCertificate(common_name=record.onion, self_signed=True)
            https_site = StaticSite(html=site.html, certificate=cert)
            record.service.host.add_endpoint(
                ServiceEndpoint(port=PORT_HTTPS, protocol="https", application=https_site)
            )
        for _ in range(spec.http_content_count):
            language, topic = next_assignment()
            site = self._make_site(language, topic, rng)
            self._web_record(
                "http-content", site, rng, https=False, topic=topic, language=language
            )
        for _ in range(spec.error_page_count):
            site = StaticSite(html=wrap_html("", synth_error_page(rng)))
            self._web_record(
                "error-page", site, rng, https=False, content_kind="error"
            )
        for _ in range(spec.short_page_count):
            site = StaticSite(html=wrap_html("", synth_short_page(rng)))
            self._web_record(
                "short-page", site, rng, https=False, content_kind="short"
            )

    def build_phishing(self) -> None:
        """Silk Road look-alikes with vanity-ground onion prefixes.

        Section IV: 15 addresses shared the "silkroa" prefix; at least one
        was a phishing clone of the real login page.  A 7-character prefix
        costs ~32⁷ hashes (GPU territory); a 3-character prefix reproduces
        the phenomenon — same grinding loop, same look-alike directory
        entries — at 32³ expected hashes per clone.
        """
        from repro.crypto.vanity import grind_vanity_onion

        rng = derive_rng(self.seed, "population", "phishing")
        for index in range(self.spec.silkroad_phishing_count):
            keypair = grind_vanity_onion("sil", self._keys_rng)
            site = self._make_site("en", "counterfeit", rng)
            host = SimpleHost(down_days=self._scan_down_days(rng))
            host.add_endpoint(
                ServiceEndpoint(port=PORT_HTTP, protocol="http", application=site)
            )
            service = self._new_service(host, None, rng, keypair=keypair)
            label = f"silkroad-phishing-{index + 1}"
            record = self._add(
                HiddenServiceRecord(
                    service=service,
                    group="silkroad-phishing",
                    label=label,
                    topic="counterfeit",
                    language="en",
                    content_kind="topic",
                )
            )
            self.named_onions[label] = record.onion

    def build_non_web(self) -> None:
        """SSH, TorChat, IRC, port 4050, and miscellaneous high ports."""
        spec = self.spec
        rng = derive_rng(self.seed, "population", "non-web")
        for _ in range(spec.ssh_count):
            host = SimpleHost(down_days=self._scan_down_days(rng))
            host.add_endpoint(
                ServiceEndpoint(port=PORT_SSH, protocol="ssh", banner=ssh_banner(rng))
            )
            online_until = self._survival_until(
                rng, rng.random() < spec.ssh_crawl_survival
            )
            service = self._new_service(host, online_until, rng)
            self._add(
                HiddenServiceRecord(
                    service=service, group="ssh", content_kind="banner"
                )
            )
        misc_groups = (
            ("torchat", [PORT_TORCHAT], spec.torchat_count, "TorChat"),
            ("port4050", [PORT_4050], spec.port4050_count, ""),
            ("irc", [PORT_IRC], spec.irc_count, ":irc.onion NOTICE AUTH"),
        )
        for group, ports, count, banner_stem in misc_groups:
            for _ in range(count):
                self._misc_record(group, ports, banner_stem, rng)
        for _ in range(spec.port8080_count):
            # HTTP-alt services that actually answer (Table I's small
            # dedicated "8080" row).
            self._misc_record(
                "port8080", [8080], "HTTP/1.0 200 OK alt-port", rng, speaks=True
            )
        for _ in range(spec.misc_onion_count):
            port_count = rng.randint(1, spec.misc_ports_per_onion_max)
            ports = rng.sample(OTHER_PORT_CANDIDATES, port_count)
            self._misc_record("misc-port", ports, "", rng)

    def _misc_record(
        self,
        group: str,
        ports: List[int],
        banner_stem: str,
        rng: random.Random,
        speaks: Optional[bool] = None,
    ) -> None:
        spec = self.spec
        host = SimpleHost(down_days=self._scan_down_days(rng))
        if speaks is None:
            # Conditional on surviving to the crawl: does the service say
            # anything to an HTTP-ish probe?
            speaks = rng.random() < spec.misc_crawl_connect
        for port in ports:
            banner = ""
            if speaks:
                banner = banner_stem or f"220 service ready on {port}"
            host.add_endpoint(
                ServiceEndpoint(port=port, protocol="other", banner=banner)
            )
        online_until = self._survival_until(
            rng, rng.random() < spec.misc_crawl_open
        )
        service = self._new_service(host, online_until, rng)
        self._add(
            HiddenServiceRecord(
                service=service,
                group=group,
                content_kind="banner" if speaks else "none",
            )
        )

    # -- popularity labels -------------------------------------------------- #

    def assign_named_labels(self) -> None:
        """Bind the remaining Table II labels to suitable content sites."""
        rng = derive_rng(self.seed, "population", "labels")
        wanted: List[Tuple[str, Optional[str]]] = [
            ("silkroad", "drugs"),
            ("silkroad-wiki", "politics"),
            ("blackmarket-reloaded", "counterfeit"),
            ("freedom-hosting", "services"),
            ("tordir", "other"),
            ("duckduckgo", "technology"),
            ("onion-bookmarks", "other"),
            ("unknown-pop-1", None),
        ]
        wanted.extend((f"adult-pop-{i + 1}", "adult") for i in range(8))
        # (phishing clones are generated separately with vanity prefixes;
        # see build_phishing)
        unlabeled = [
            record
            for record in self.records
            if not record.label and record.content_kind == "topic"
        ]
        rng.shuffle(unlabeled)
        by_topic: Dict[str, List[HiddenServiceRecord]] = {}
        for record in unlabeled:
            if record.language == "en" and record.topic:
                by_topic.setdefault(record.topic, []).append(record)
        fallback = [r for r in unlabeled if r.language == "en"]
        for label, topic in wanted:
            pool = by_topic.get(topic, []) if topic else fallback
            record = None
            while pool:
                candidate = pool.pop()
                if not candidate.label:
                    record = candidate
                    break
            if record is None:
                while fallback:
                    candidate = fallback.pop()
                    if not candidate.label:
                        record = candidate
                        break
            if record is None:
                raise PopulationError(
                    f"no unlabeled content site available for {label!r}"
                )
            record.label = label
            # Popular services do not churn away mid-study.
            record.service.online_until = None
            record.service.host.online_until = None
            record.service.host.down_days = frozenset()
            self.named_onions[label] = record.onion


def generate_population(
    spec: Optional[PopulationSpec] = None,
    seed: int = 0,
    scale: float = 1.0,
) -> GeneratedPopulation:
    """Generate a world.

    Args:
        spec: calibration; defaults to the paper's full-scale spec.
        seed: master seed; every sub-stream derives from it.
        scale: convenience shorthand for ``spec.scaled(scale)``.
    """
    spec = population_spec(scale, spec)
    builder = _Builder(spec, seed)
    builder.build_dead()
    builder.build_skynet()
    builder.build_goldnet()
    builder.build_web()
    builder.build_phishing()
    builder.build_non_web()
    builder.build_no_port()
    builder.assign_named_labels()

    ghost_rng = derive_rng(seed, "population", "ghosts")
    ghost_onions = [
        onion_address_from_key(ghost_rng.randbytes(140))
        for _ in range(spec.ghost_onion_count)
    ]

    tail_rng = derive_rng(seed, "population", "tail")
    labeled = {record.onion for record in builder.records if record.label}
    candidates = [
        record.onion
        for record in builder.records
        if record.onion not in labeled and record.group != "dead"
    ]
    tail_count = min(spec.tail_onion_count, len(candidates))
    tail_onions = tail_rng.sample(candidates, tail_count)

    return GeneratedPopulation(
        spec=spec,
        seed=seed,
        records=builder.records,
        registry=builder.registry,
        named_onions=builder.named_onions,
        ghost_onions=ghost_onions,
        tail_onions=tail_onions,
    )
