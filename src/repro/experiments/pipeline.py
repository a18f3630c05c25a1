"""The shared measurement pipeline: population → scan → crawl → classify.

Fig 1, Table I and Fig 2 are successive stages of one campaign (the paper
scanned in February and crawled the scan's output two months later), so the
pipeline computes each stage lazily and caches it; the three experiment
drivers pull the stage they report on.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Dict, List, Optional, Tuple

from repro.crawl.crawler import Crawler, CrawlResults
from repro.crawl.filters import ClassifiableSet, apply_exclusions
from repro.crawl.page import FetchedPage
from repro.faults.plan import FaultPlan
from repro.faults.profiles import build_fault_plan, default_retry_policy
from repro.faults.retry import RetryPolicy
from repro.faults.transport import wrap_transport
from repro.net.transport import OnionRegistry, TorTransport
from repro.obs.scope import Observer, ensure_observer
from repro.parallel.executor import QUARANTINED, ShardQuarantine, pmap, resolve_workers
from repro.population.lazy import LazyPopulation
from repro.population.spec import PORT_SKYNET
from repro.scan.results import ScanResults
from repro.scan.tls import (
    CertificateAnalysis,
    analyze_certificates,
    collect_certificates,
)
from repro.sim.clock import DAY
from repro.sim.rng import derive_rng
from repro.store.checkpoint import ArtifactStore, Stage, StateCursor

if TYPE_CHECKING:
    from repro.classify.language import LanguageDetector
    from repro.classify.topics import TopicClassifier
    from repro.population.generator import GeneratedPopulation
    from repro.runconfig import RunConfig


class _TransportCursor(StateCursor):
    """Checkpoint cursor over the pipeline's transport stream state.

    The transport's circuit RNG and attempt counters carry across stages,
    so a cache hit must leave them exactly where running the stage would
    have; the store captures this cursor before each stage (it becomes
    part of the cache key) and restores the recorded post-stage snapshot
    on a hit.  Until a stage misses, the transport does not exist: the
    cursor then reads and writes the pipeline's pending stream state,
    which the transport starts from when it is built.
    """

    def __init__(self, pipeline: "MeasurementPipeline") -> None:
        self._pipeline = pipeline

    def capture(self) -> Dict[str, Any]:
        transport = self._pipeline._transport
        if transport is None:
            return self._pipeline._pending_stream
        return transport.stream_state()

    def restore(self, state: Dict[str, Any]) -> None:
        transport = self._pipeline._transport
        if transport is None:
            self._pipeline._pending_stream = state
        else:
            transport.restore_stream_state(state)


def _classify_page(
    page: FetchedPage,
    observer: Optional[Observer] = None,
    *,
    detector: LanguageDetector,
    classifier: TopicClassifier,
) -> Tuple[str, bool, Optional[str]]:
    """(language, is-TorHost-default, topic-or-None) for one page.

    Pure per page and picklable (module-level function, dict-state
    models), so the classify stage can fan out across processes.  When
    the stage runs under an enabled observer, ``observer`` is the shard
    observer :func:`repro.parallel.pmap` hands in; the counters recorded
    here are additive, so the merged snapshot is worker-count-invariant.
    """
    from repro.classify.topics import is_torhost_default

    obs = ensure_observer(observer)
    language = detector.detect(page.text)
    obs.count("classify_pages_total", language=language)
    if language != "en":
        return language, False, None
    if is_torhost_default(page.text):
        obs.count("classify_torhost_defaults_total")
        return language, True, None
    topic = classifier.classify(page.text)
    obs.count("classify_topics_total", topic=topic)
    return language, False, topic


@dataclass
class ClassificationOutcome:
    """Language and topic assignments over the classifiable pages."""

    KIND: ClassVar[str] = "classification-outcome"

    language_counts: Dict[str, int] = field(default_factory=dict)
    topic_counts: Dict[str, int] = field(default_factory=dict)
    torhost_default_count: int = 0
    english_pages: int = 0
    classified_pages: int = 0
    page_languages: Dict[Tuple[str, int], str] = field(default_factory=dict)
    page_topics: Dict[Tuple[str, int], str] = field(default_factory=dict)

    @property
    def english_fraction(self) -> float:
        """Share of classified pages detected as English."""
        if not self.classified_pages:
            return 0.0
        return self.english_pages / self.classified_pages

    def topic_shares_percent(self) -> Dict[str, float]:
        """Fig 2: topic percentages over topic-classified pages."""
        total = sum(self.topic_counts.values())
        if not total:
            return {}
        return {
            topic: 100.0 * count / total
            for topic, count in self.topic_counts.items()
        }


class MeasurementPipeline:
    """Lazily evaluated scan → crawl → classify campaign."""

    def __init__(
        self,
        seed: int = 0,
        scale: float = 1.0,
        population: Optional[GeneratedPopulation] = None,
        scan_days: int = 8,
        workers: Optional[int] = None,
        fault_profile: Optional[str] = None,
        retries: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        observer: Optional[Observer] = None,
        store: Optional[ArtifactStore] = None,
        crash_point: Optional[Callable[[str], None]] = None,
        quarantine: Optional[ShardQuarantine] = None,
    ) -> None:
        self.seed = seed
        #: Supervision hooks (repro.supervise threads these in; the
        #: pipeline never imports that package).  ``crash_point`` is hit
        #: at every stage boundary, classify shard, and store commit;
        #: ``quarantine`` isolates poisoned classify items.  Neither is
        #: part of any cache key: supervision must never shape artifact
        #: bytes — a crashed-and-resumed run stays byte-identical to a
        #: clean one.
        self.crash_point = crash_point
        self.quarantine = quarantine
        #: The campaign's observability scope: every stage, the transport,
        #: the fault wrapper and the retry layer record into it.  Explicit
        #: (not global) so two pipelines never share metric state.
        self.observer = observer if observer is not None else Observer(name="pipeline")
        #: Worker count for every stage fan-out (None → $REPRO_WORKERS → 1).
        #: Any value yields byte-identical stages; see repro.parallel.
        self.workers = workers
        #: The campaign's world, generated when a stage first misses: a
        #: run that replays every stage from the store never builds it.
        self.world = LazyPopulation.wrap(population, seed, scale)
        self.scan_days = scan_days
        # Fault plane: an explicit plan wins; otherwise the profile resolves
        # explicit argument → $REPRO_FAULTS → "none".  With the "none"
        # profile the plan is inert, no retry policy is installed, and the
        # raw transport is used — byte-identical to the pre-fault pipeline.
        if fault_plan is None:
            fault_plan = build_fault_plan(fault_profile, seed=seed)
        self.fault_plan = fault_plan
        self.fault_profile = fault_plan.name
        if retry_policy is None and retries:
            retry_policy = default_retry_policy(
                fault_profile if fault_plan.name == "custom" else fault_plan.name,
                seed=seed,
            )
        self.retry_policy = retry_policy if retries else None
        # The transport is built over the world on first use; until then
        # the store cursor works on the stream state it will start from,
        # read off a transport over an empty registry.
        self._transport: Optional[Any] = None
        self._pending_stream = self._new_transport(OnionRegistry()).stream_state()
        #: Optional artifact store (repro.store): when present, each stage
        #: checkpoints through it — cache hits skip the compute entirely
        #: and restore the transport cursor, so warm runs stay
        #: byte-identical to cold ones.  None (the default) leaves every
        #: stage exactly as before the store existed.
        self.store = store
        if store is not None and not store.observer.enabled:
            # Adopt the campaign observer so hit/miss/byte counters land in
            # the same snapshot as the stages they describe.
            store.observer = self.observer
        if store is not None and crash_point is not None:
            store.crash_point = crash_point
        self._scan: Optional[ScanResults] = None
        self._certs: Optional[CertificateAnalysis] = None
        self._crawl: Optional[CrawlResults] = None
        self._classifiable: Optional[ClassifiableSet] = None
        self._classification: Optional[ClassificationOutcome] = None

    @classmethod
    def for_run(cls, run: RunConfig, **options: Any) -> "MeasurementPipeline":
        """The campaign ``run`` configures: its seed, scale, workers and
        fault profile.  ``options`` go to the constructor (a store, an
        observer, supervision hooks)."""
        return cls(
            seed=run.seed,
            scale=run.scale,
            workers=run.workers,
            fault_profile=run.fault_profile,
            **options,
        )

    # -- the world -------------------------------------------------------- #

    @property
    def population(self) -> GeneratedPopulation:
        """The campaign's world, generated on first access."""
        return self.world.get()

    @property
    def transport(self) -> Any:
        """The campaign transport, built over the world on first access."""
        if self._transport is None:
            population = self.population
            transport = self._new_transport(
                population.registry, population.descriptor_available
            )
            transport.restore_stream_state(self._pending_stream)
            self._transport = transport
        return self._transport

    def _new_transport(
        self,
        registry: OnionRegistry,
        descriptor_available: Optional[Callable[..., bool]] = None,
    ) -> Any:
        return wrap_transport(
            TorTransport(
                registry,
                derive_rng(self.seed, "pipeline", "transport"),
                descriptor_available=descriptor_available,
                observer=self.observer,
            ),
            self.fault_plan,
            observer=self.observer,
        )

    # -- checkpointing ----------------------------------------------------- #

    def _store_config(self) -> Dict[str, Any]:
        """Everything configurable that shapes stage artifacts.

        Part of every stage's cache key: two pipelines with equal configs
        (and equal code and upstream artifacts) produce identical
        artifacts; any difference here keys — and caches — separately.
        """
        policy = self.retry_policy
        return {
            "seed": self.seed,
            "population": self.world.identity(),
            "scan_days": self.scan_days,
            "faults": self.fault_plan.describe(),
            "retry_policy": dataclasses.asdict(policy) if policy else None,
            "workers": resolve_workers(self.workers),
        }

    def _run_stage(
        self,
        name: str,
        artifact: type,
        compute: Callable[[], Any],
        upstream: Tuple[str, ...] = (),
    ) -> Any:
        """Run one stage, through the store's checkpoint when configured.

        ``artifact`` is the class of the stage's result, which
        :mod:`repro.codec` encodes into the store and decodes back out.
        The stage-boundary crash points bracket the checkpointed body:
        ``stage:<name>:enter`` fires before anything runs (a death there
        costs nothing — no commit happened), ``stage:<name>:exit`` fires
        after the commit (a death there costs nothing either — the next
        incarnation replays the stage as a cache hit).
        """
        if self.crash_point is not None:
            self.crash_point(f"stage:{name}:enter")
        if self.store is None:
            result = compute()
        else:
            stage = Stage.of(name, __name__, artifact)
            result = self.store.run(
                stage,
                self._store_config(),
                compute,
                cursor=_TransportCursor(self),
                upstream=upstream,
            )
        if self.crash_point is not None:
            self.crash_point(f"stage:{name}:exit")
        return result

    # -- stages ---------------------------------------------------------- #

    def scan(self) -> ScanResults:
        """Stage 1: the 8-day port scan (Section III)."""
        if self._scan is None:
            self._scan = self._run_stage("scan", ScanResults, self._compute_scan)
        return self._scan

    def _compute_scan(self) -> ScanResults:
        from repro.scan.scanner import PortScanner
        from repro.scan.schedule import ScanSchedule

        schedule = ScanSchedule(start=self.population.scan_start, days=self.scan_days)
        with self.observer.span("pipeline.scan"):
            return PortScanner(
                self.transport,
                retry_policy=self.retry_policy,
                observer=self.observer,
            ).run(self.population.all_onions, schedule, workers=self.workers)

    def certificates(self) -> CertificateAnalysis:
        """Stage 1b: HTTPS certificate analysis (Section III)."""
        if self._certs is None:
            self.scan()  # the upstream artifact feeds this stage's key
            self._certs = self._run_stage(
                "certificates",
                CertificateAnalysis,
                self._compute_certificates,
                upstream=("scan",),
            )
        return self._certs

    def _compute_certificates(self) -> CertificateAnalysis:
        scan = self.scan()
        https = scan.onions_with_port(443)
        when = self.population.scan_start + self.scan_days * DAY
        with self.observer.span("pipeline.certificates", https_onions=len(https)):
            certs = collect_certificates(self.transport, https, when)
            analysis = analyze_certificates(certs)
        self.observer.gauge("certificates_collected", len(certs))
        return analysis

    def crawl(self) -> CrawlResults:
        """Stage 2: the HTTP(S) crawl two months later (Section IV)."""
        if self._crawl is None:
            self.scan()
            self._crawl = self._run_stage(
                "crawl",
                CrawlResults,
                self._compute_crawl,
                upstream=("scan",),
            )
        return self._crawl

    def _compute_crawl(self) -> CrawlResults:
        destinations = self.scan().destinations_excluding(PORT_SKYNET)
        crawler = Crawler(
            self.transport,
            retry_policy=self.retry_policy,
            observer=self.observer,
        )
        with self.observer.span("pipeline.crawl"):
            return crawler.crawl(
                destinations, self.population.crawl_date, workers=self.workers
            )

    def classifiable(self) -> ClassifiableSet:
        """Stage 3: the exclusion funnel."""
        if self._classifiable is None:
            self._classifiable = apply_exclusions(self.crawl())
        return self._classifiable

    def classify(self) -> ClassificationOutcome:
        """Stage 4: language detection + topic classification.

        Per-page scoring is pure, so the fan-out runs through
        :func:`repro.parallel.pmap` (genuinely multi-process at
        ``workers>1``); the outcome merge walks pages in crawl order, so
        counts and first-encounter dict ordering match the serial run
        exactly.
        """
        if self._classification is None:
            self.crawl()
            self._classification = self._run_stage(
                "classify",
                ClassificationOutcome,
                self._compute_classify,
                upstream=("crawl",),
            )
        return self._classification

    def _compute_classify(self) -> ClassificationOutcome:
        outcome = ClassificationOutcome()
        pages = self.classifiable().pages
        with self.observer.span("pipeline.classify", pages=len(pages)):
            assignments = pmap(
                functools.partial(
                    _classify_page,
                    detector=self.language_detector,
                    classifier=self.topic_classifier,
                ),
                pages,
                workers=self.workers,
                observer=self.observer,
                quarantine=self.quarantine,
                crash_point=self.crash_point,
            )
        for page, assignment in zip(pages, assignments):
            if assignment is QUARANTINED:
                # A poisoned page was isolated instead of killing the run;
                # the outcome degrades by exactly that page and the
                # CompletenessManifest reports it.
                self.observer.count("classify_pages_quarantined_total")
                continue
            language, is_default, topic = assignment
            outcome.classified_pages += 1
            outcome.page_languages[page.destination] = language
            outcome.language_counts[language] = (
                outcome.language_counts.get(language, 0) + 1
            )
            if language != "en":
                continue
            outcome.english_pages += 1
            if is_default:
                outcome.torhost_default_count += 1
                continue
            outcome.page_topics[page.destination] = topic
            outcome.topic_counts[topic] = outcome.topic_counts.get(topic, 0) + 1
        self.observer.gauge("classify_pages", outcome.classified_pages)
        self.observer.gauge("classify_english_pages", outcome.english_pages)
        return outcome

    # -- shared models ---------------------------------------------------- #

    @property
    def language_detector(self) -> LanguageDetector:
        """The shipped (pre-trained) language model, shared process-wide."""
        from repro.classify.training import build_language_detector

        return build_language_detector()

    @property
    def topic_classifier(self) -> TopicClassifier:
        """The shipped (pre-trained) topic model, shared process-wide."""
        from repro.classify.training import build_topic_classifier

        return build_topic_classifier()

    # -- conveniences ------------------------------------------------------ #

    def classified_pages(self) -> List[FetchedPage]:
        """Pages that survived the funnel."""
        return list(self.classifiable().pages)
