"""Tests for repro.population.generator — the generated world's shape."""

from collections import Counter

from repro.population.generator import CRAWL_DATE, HARVEST_DATE, SCAN_END, SCAN_START
from repro.population.spec import PORT_SKYNET


class TestWorldShape:
    def test_record_count_matches_spec(self, small_population):
        assert len(small_population.records) == small_population.spec.total_onions

    def test_unique_onions(self, small_population):
        onions = small_population.all_onions
        assert len(set(onions)) == len(onions)

    def test_registry_covers_all_records(self, small_population):
        for record in small_population.records[:100]:
            assert small_population.registry.lookup(record.onion) is not None

    def test_group_quotas(self, small_population):
        spec = small_population.spec
        counts = Counter(record.group for record in small_population.records)
        assert counts["skynet-bot"] == spec.skynet_bot_count
        assert counts["dead"] == spec.dead_by_scan_count
        assert counts["goldnet"] == spec.goldnet_front_count
        assert counts["torhost-default"] == spec.torhost_default_count
        assert counts["ssh"] == spec.ssh_count

    def test_ghosts_not_in_registry(self, small_population):
        for ghost in small_population.ghost_onions[:50]:
            assert small_population.registry.lookup(ghost) is None

    def test_tail_onions_are_published(self, small_population):
        published = set(small_population.all_onions)
        assert all(onion in published for onion in small_population.tail_onions)

    def test_tail_excludes_named(self, small_population):
        named = set(small_population.named_onions.values())
        assert not named & set(small_population.tail_onions)


class TestAvailabilityWindows:
    def test_everyone_alive_at_harvest(self, small_population):
        alive = sum(
            1
            for record in small_population.records
            if record.service.is_online(HARVEST_DATE)
        )
        assert alive == len(small_population.records)

    def test_dead_group_gone_by_scan(self, small_population):
        for record in small_population.records_in_group("dead"):
            assert not record.service.is_online(SCAN_START)

    def test_descriptor_availability_tracks_service(self, small_population):
        dead = small_population.records_in_group("dead")[0]
        assert small_population.descriptor_available(dead.onion, HARVEST_DATE)
        assert not small_population.descriptor_available(dead.onion, SCAN_START)

    def test_unknown_onion_has_no_descriptor(self, small_population):
        assert not small_population.descriptor_available(
            "aaaaaaaaaaaaaaaa.onion", HARVEST_DATE
        )

    def test_named_services_never_churn(self, small_population):
        for label, onion in small_population.named_onions.items():
            record = small_population.record_for(onion)
            assert record.service.is_online(CRAWL_DATE), label

    def test_scan_coverage_loss_is_planted(self, small_population):
        """Some alive hosts must have down-days inside the scan window —
        the mechanism behind the 87% port coverage."""
        down_day_hosts = sum(
            1
            for record in small_population.records
            if record.group != "dead" and record.service.host.down_days
        )
        assert down_day_hosts > 0


class TestContentAssignments:
    def test_skynet_bots_expose_only_55080(self, small_population):
        for record in small_population.records_in_group("skynet-bot")[:50]:
            assert record.service.host.open_ports == [PORT_SKYNET]

    def test_goldnet_serves_503(self, small_population):
        record = small_population.records_in_group("goldnet")[0]
        app = record.service.host.endpoint_on(80).application
        assert app.handle_request("/", CRAWL_DATE).status == 503

    def test_torhost_certs_point_at_hosting_service(self, small_population):
        torhost_onion = small_population.named_onions["torhost-main"]
        record = small_population.records_in_group("torhost-default")[0]
        cert = record.service.host.endpoint_on(443).application.certificate
        assert cert.common_name == torhost_onion
        assert cert.self_signed

    def test_deanon_certs_name_clearnet_hosts(self, small_population):
        for record in small_population.records_in_group("deanon-cert"):
            cert = record.service.host.endpoint_on(443).application.certificate
            assert cert.names_public_dns

    def test_dual_sites_serve_same_content_on_both_ports(self, small_population):
        record = small_population.records_in_group("torhost-content")[0]
        http = record.service.host.endpoint_on(80).application
        https = record.service.host.endpoint_on(443).application
        assert http.html == https.html

    def test_english_topic_sites_have_topics(self, small_population):
        for record in small_population.records_in_group("http-content")[:50]:
            if record.language == "en":
                assert record.topic is not None

    def test_named_labels_bound(self, small_population):
        for label in ("silkroad", "duckduckgo", "goldnet-1", "torhost-main"):
            assert label in small_population.named_onions

    def test_silkroad_record_is_drugs(self, small_population):
        record = small_population.record_for(
            small_population.named_onions["silkroad"]
        )
        assert record.topic == "drugs"

    def test_determinism(self):
        from repro.population.generator import generate_population

        a = generate_population(seed=42, scale=0.01)
        b = generate_population(seed=42, scale=0.01)
        assert a.all_onions == b.all_onions
        assert a.named_onions == b.named_onions

    def test_different_seeds_differ(self):
        from repro.population.generator import generate_population

        a = generate_population(seed=1, scale=0.01)
        b = generate_population(seed=2, scale=0.01)
        assert a.all_onions != b.all_onions
