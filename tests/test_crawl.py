"""Tests for repro.crawl — crawler, page model, exclusion funnel."""

import pytest

from repro.crawl.crawler import Crawler, CrawlResults
from repro.crawl.filters import apply_exclusions, MIN_WORDS, destinations_summary
from repro.crawl.page import FetchedPage, PageKind
from repro.errors import CrawlError
from repro.net.transport import TorTransport
from repro.population.spec import PORT_SKYNET
from repro.sim.rng import derive_rng


def make_page(port=80, kind=PageKind.HTML, text="", status=200, onion="a" * 16 + ".onion"):
    return FetchedPage(
        onion=onion, port=port, scheme="http", kind=kind, status=status, text=text
    )


class TestFetchedPage:
    def test_word_count(self):
        assert make_page(text="one two three").word_count == 3

    def test_connected(self):
        assert make_page(kind=PageKind.HTML).connected
        assert make_page(kind=PageKind.BANNER).connected
        assert not make_page(kind=PageKind.DEAD).connected
        assert not make_page(kind=PageKind.NO_RESPONSE).connected


class TestPageIndex:
    def test_page_for_uses_the_index(self):
        results = CrawlResults()
        first = make_page(text="first")
        results.add_page(first)
        assert results.page_for(first.onion, first.port) is first

    def test_first_page_wins_for_a_duplicate_destination(self):
        results = CrawlResults()
        first = make_page(text="first")
        second = make_page(text="second")
        results.add_page(first)
        results.add_page(second)
        assert results.page_for(first.onion, first.port) is first

    def test_direct_appends_are_picked_up_lazily(self):
        # The exclusion funnel builds CrawlResults by appending to .pages
        # directly; page_for must rebuild its index and still find them.
        results = CrawlResults(pages=[make_page(text="seeded")])
        assert results.page_for("a" * 16 + ".onion", 80).text == "seeded"
        late = make_page(onion="b" * 16 + ".onion", text="late")
        results.pages.append(late)
        assert results.page_for(late.onion, late.port) is late

    def test_unknown_destination_raises(self):
        results = CrawlResults(pages=[make_page()])
        with pytest.raises(CrawlError):
            results.page_for("c" * 16 + ".onion", 443)


class TestExclusionFunnel:
    def test_short_pages_excluded(self):
        results = CrawlResults(pages=[make_page(text="too short")])
        out = apply_exclusions(results)
        assert out.short_excluded == 1
        assert out.classified_count == 0

    def test_ssh_banners_counted_separately(self):
        results = CrawlResults(
            pages=[make_page(port=22, kind=PageKind.BANNER, text="SSH-2.0-X")]
        )
        out = apply_exclusions(results)
        assert out.short_excluded == 1
        assert out.ssh_banner_excluded == 1

    def test_duplicate_443_excluded(self):
        text = "word " * MIN_WORDS
        results = CrawlResults(
            pages=[
                make_page(port=80, text=text),
                make_page(port=443, text=text),
            ]
        )
        out = apply_exclusions(results)
        assert out.duplicate_443_excluded == 1
        assert out.classified_count == 1

    def test_different_443_content_kept(self):
        results = CrawlResults(
            pages=[
                make_page(port=80, text="alpha " * MIN_WORDS),
                make_page(port=443, text="beta " * MIN_WORDS),
            ]
        )
        out = apply_exclusions(results)
        assert out.duplicate_443_excluded == 0
        assert out.classified_count == 2

    def test_error_pages_excluded(self):
        text = "Error 404 Not Found " * 10
        results = CrawlResults(pages=[make_page(text=text)])
        out = apply_exclusions(results)
        assert out.error_page_excluded == 1

    def test_http_error_status_excluded(self):
        text = "perfectly fine words " * 10
        results = CrawlResults(pages=[make_page(text=text, status=503)])
        out = apply_exclusions(results)
        assert out.error_page_excluded == 1

    def test_good_page_survives(self):
        text = "chess server with openings and endgames " * 5
        results = CrawlResults(pages=[make_page(text=text)])
        out = apply_exclusions(results)
        assert out.classified_count == 1
        assert out.total_excluded == 0

    def test_dead_pages_ignored(self):
        results = CrawlResults(pages=[make_page(kind=PageKind.DEAD)])
        out = apply_exclusions(results)
        assert out.classified_count == 0
        assert out.total_excluded == 0


    def test_ssh_banners_are_inside_the_short_count(self):
        results = CrawlResults(
            pages=[
                make_page(port=22, kind=PageKind.BANNER, text="SSH-2.0-X"),
                make_page(port=80, text="short page"),
                make_page(port=80, text="Error 404 Not Found " * 10, onion="b" * 16 + ".onion"),
            ]
        )
        out = apply_exclusions(results)
        assert (out.short_excluded, out.ssh_banner_excluded) == (2, 1)
        assert out.total_excluded == 3

    def test_funnel_keeps_every_connected_page_accounted_for(self):
        text = "alpha beta gamma delta " * MIN_WORDS
        results = CrawlResults(
            pages=[
                make_page(port=80, text=text),
                make_page(port=443, text=text),
                make_page(port=8080, text="tiny"),
                make_page(port=80, text="Error 404 Not Found " * 10, onion="b" * 16 + ".onion"),
                make_page(port=81, kind=PageKind.DEAD),
            ]
        )
        out = apply_exclusions(results)
        connected = sum(page.connected for page in results.pages)
        assert out.classified_count + out.total_excluded == connected == 4
        assert [page.port for page in out.pages] == [80]


class TestDestinationsSummary:
    def test_port_buckets(self):
        results = CrawlResults(
            pages=[
                make_page(port=80, text="x"),
                make_page(port=443, text="x"),
                make_page(port=22, kind=PageKind.BANNER, text="b"),
                make_page(port=8080, text="x"),
                make_page(port=12345, kind=PageKind.BANNER, text="b"),
                make_page(port=9999, kind=PageKind.DEAD),
            ]
        )
        rows = dict(destinations_summary(results))
        assert rows == {"80": 1, "443": 1, "22": 1, "8080": 1, "Other": 1}


class TestCrawlerIntegration:
    def test_crawl_funnel_on_small_world(self, small_population, small_pipeline):
        crawl = small_pipeline.crawl()
        assert crawl.tried > 0
        assert crawl.open_at_crawl <= crawl.tried
        assert crawl.connected <= crawl.open_at_crawl
        # Rough shape: ~87% open, ~92% of those connected (web-dominated).
        assert 0.7 <= crawl.open_at_crawl / crawl.tried <= 0.95

    def test_skynet_not_crawled(self, small_pipeline):
        crawl = small_pipeline.crawl()
        assert all(page.port != PORT_SKYNET for page in crawl.pages)

    def test_banner_pages_from_ssh(self, small_pipeline):
        crawl = small_pipeline.crawl()
        ssh_pages = [p for p in crawl.pages if p.port == 22 and p.connected]
        assert ssh_pages
        assert all(p.kind is PageKind.BANNER for p in ssh_pages)
        assert all(p.text.startswith("SSH-") for p in ssh_pages)

    def test_goldnet_pages_are_503(self, small_population, small_pipeline):
        crawl = small_pipeline.crawl()
        goldnet_onions = {
            record.onion for record in small_population.records_in_group("goldnet")
        }
        goldnet_pages = [p for p in crawl.pages if p.onion in goldnet_onions]
        assert goldnet_pages
        assert all(p.status == 503 for p in goldnet_pages)

    def test_unknown_destination_dead(self, small_population):
        transport = TorTransport(
            small_population.registry, derive_rng(9, "c")
        )
        crawler = Crawler(transport)
        results = crawler.crawl(
            [("zzzzzzzzzzzzzzzz.onion", 80)], when=small_population.crawl_date
        )
        assert results.pages[0].kind is PageKind.DEAD
