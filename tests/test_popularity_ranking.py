"""Tests for repro.popularity.ranking."""

from repro.popularity.ranking import PopularityRanking, RankedService


def make_ranking():
    counts = {"aa" * 8 + ".onion": 100, "bb" * 8 + ".onion": 300, "cc" * 8 + ".onion": 50}
    labels = {"bb" * 8 + ".onion": "Goldnet"}
    return PopularityRanking.from_counts(counts, labels)


class TestRanking:
    def test_descending_order(self):
        ranking = make_ranking()
        requests = [row.requests for row in ranking.rows]
        assert requests == sorted(requests, reverse=True)

    def test_ranks_are_one_based_sequential(self):
        assert [row.rank for row in make_ranking().rows] == [1, 2, 3]

    def test_rank_of(self):
        ranking = make_ranking()
        assert ranking.rank_of("bb" * 8 + ".onion") == 1
        assert ranking.rank_of("zz" * 8 + ".onion") is None

    def test_row_for(self):
        ranking = make_ranking()
        row = ranking.row_for("cc" * 8 + ".onion")
        assert row.requests == 50
        assert ranking.row_for("zz" * 8 + ".onion") is None

    def test_labels_applied(self):
        ranking = make_ranking()
        assert ranking.rows[0].description == "Goldnet"
        assert ranking.rows[1].description == "<n/a>"

    def test_rows_matching(self):
        assert len(make_ranking().rows_matching("Goldnet")) == 1

    def test_tie_break_deterministic(self):
        counts = {"aa" * 8 + ".onion": 5, "ab" * 8 + ".onion": 5}
        ranking = PopularityRanking.from_counts(counts)
        assert ranking.rows[0].onion < ranking.rows[1].onion

    def test_relabel(self):
        ranking = make_ranking()
        ranking.relabel({"aa" * 8 + ".onion": "Adult"})
        assert ranking.row_for("aa" * 8 + ".onion").description == "Adult"
        # Existing labels untouched.
        assert ranking.row_for("bb" * 8 + ".onion").description == "Goldnet"

    def test_top(self):
        assert len(make_ranking().top(2)) == 2

    def test_format_table_contains_header_and_rows(self):
        table = make_ranking().format_table()
        assert "RQSTS" in table
        assert "Goldnet" in table

    def test_ranking_built_from_rows_finds_its_onions(self):
        onion = "dd" * 8 + ".onion"
        ranking = PopularityRanking(rows=[RankedService(rank=1, requests=5, onion=onion)])
        assert ranking.rank_of(onion) == 1
        assert ranking.row_for(onion).requests == 5
