import datetime as dt

import pytest
from hypothesis import given, strategies as st

from widir.domain import (
    CENTS,
    ContestType,
    PrizeDistribution,
    day_of,
    day_start,
    format_money,
    format_ts,
    parse_money,
    parse_ts,
    prize_stats,
    read_catalog,
    read_join_log,
    read_schedule,
    validate_contest,
    write_catalog,
    write_join_log,
    write_schedule,
    MatchRecord,
)

from widir.errors import DataError

from conftest import DAY0, mk_contest, mk_join

LAST_FOUR_DIGIT_SECOND = 253_402_300_799  # 9999-12-31T23:59:59Z


# a sign after the point, a space, a third decimal, no digits, a point with no decimals
BAD_AMOUNTS = ["1.-1", "1.+5", "1. 5", "1.234", "", ".", "-", "12.", "+5", "--1", "1e3", "1_5"]


class TestMoney:
    def test_round_trip(self):
        for cents in (0, 1, 99, 100, 12_50, 10_000_00):
            assert parse_money(format_money(cents)) == cents

    def test_parse_forms(self):
        assert parse_money("12.50") == 1250
        assert parse_money("12") == 1200
        assert parse_money("12.5") == 1250
        assert parse_money("0.01") == 1

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_money("12.5x")

    def test_parse_more_forms(self):
        assert parse_money(".5") == 50
        assert parse_money("-12.05") == -1205
        assert parse_money("-0.5") == -50

    @pytest.mark.parametrize("text", BAD_AMOUNTS)
    def test_rejects_malformed_amount(self, text):
        with pytest.raises(ValueError, match="currency"):
            parse_money(text)

    @given(st.integers(min_value=-10**12, max_value=10**12))
    def test_format_round_trip(self, cents):
        assert parse_money(format_money(cents)) == cents


class TestTime:
    def test_ts_round_trip(self):
        ts = day_start(DAY0) + 17 * 3600 + 30 * 60
        assert parse_ts(format_ts(ts)) == ts
        assert format_ts(ts).endswith("Z")

    @given(st.integers(min_value=0, max_value=LAST_FOUR_DIGIT_SECOND))
    def test_parse_inverts_format(self, ts):
        assert parse_ts(format_ts(ts)) == ts

    @pytest.mark.parametrize("text", [
        "2025-1-3T7:30:0Z",        # not zero-padded
        "2025-01-03 07:30:00Z",    # space separator
        "2025-01-03T07:30:00",     # no Z
        "2025-13-03T07:30:00Z",    # month 13
        "2025-02-30T07:30:00Z",    # no such day
        "2025-01-03T24:00:00Z",    # hour 24
        "2025-01-03T07:60:00Z",    # minute 60
        "2025-01-03T07:30:60Z",    # second 60 (no leap seconds)
        "2025-02-29T07:30:00Z",    # not a leap year
        "0000-01-01T00:00:00Z",    # year 0
        "2025-01-03T07:30:00Z ",   # trailing space
        "2025-01-03T07:30:00+00:00",
        "",
    ])
    def test_malformed_stamp_rejected(self, text):
        with pytest.raises(ValueError):
            parse_ts(text)

    def test_cached_date_keeps_its_checks(self):
        assert parse_ts("2024-02-29T23:59:59Z") == day_start(dt.date(2024, 3, 1)) - 1
        for _ in range(2):  # the second call reads the cached date
            with pytest.raises(ValueError):
                parse_ts("2025-02-29T00:00:00Z")
            with pytest.raises(ValueError):
                parse_ts("2024-02-29T24:00:00Z")

    def test_day_of_boundary(self):
        assert day_of(day_start(DAY0)) == DAY0
        assert day_of(day_start(DAY0) - 1) == DAY0 - dt.timedelta(days=1)


class TestValidateContest:
    def test_well_formed_mega(self):
        spec = mk_contest(
            contest_type=ContestType.MEGA,
            contest_size=1000,
            entry_fee=15 * CENTS,
            tiers=((1, 1, 5000 * CENTS), (2, 10, 500 * CENTS), (11, 200, 10 * CENTS)),
            guaranteed=True,
        )
        assert validate_contest(spec) == []

    def test_tiers_exceed_contest_size(self):
        spec = mk_contest(contest_size=4, tiers=((1, 5, 10 * CENTS),))
        assert "prize_distribution exceeds contest_size" in validate_contest(spec)

    def test_increasing_prize_per_rank(self):
        spec = mk_contest(contest_size=10, tiers=((1, 1, 10 * CENTS), (2, 4, 20 * CENTS)))
        assert "prize_per_rank not non-increasing" in validate_contest(spec)

    def test_gap_in_tiers(self):
        spec = mk_contest(contest_size=10, tiers=((1, 2, 10 * CENTS), (4, 5, 5 * CENTS)))
        assert "prize_distribution tiers not contiguous from rank 1" in validate_contest(spec)

    def test_payout_exceeding_pool(self):
        spec = mk_contest(prize_money=10 * CENTS, tiers=((1, 1, 11 * CENTS),))
        assert "prize_distribution payout exceeds prize_money" in validate_contest(spec)

    def test_size_below_two(self):
        spec = mk_contest(contest_size=1, tiers=((1, 1, 5 * CENTS),))
        assert "contest_size below 2" in validate_contest(spec)


class TestPrizeStats:
    def test_winner_take_all(self):
        d = PrizeDistribution(((1, 1, 100 * CENTS),))
        assert prize_stats(d, 2, 100 * CENTS) == (1.0, 0.5)

    def test_flat_payout(self):
        d = PrizeDistribution(((1, 5, 20 * CENTS),))
        assert prize_stats(d, 10, 100 * CENTS) == (0.2, 0.5)

    def test_two_tier_hand_case(self):
        # hand arithmetic: top = 50/80, winners = 4/10
        d = PrizeDistribution(((1, 1, 50 * CENTS), (2, 4, 10 * CENTS)))
        top, winner = prize_stats(d, 10, 80 * CENTS)
        assert top == 50 / 80
        assert winner == 4 / 10

    def test_rejects_nonpositive_pool(self):
        d = PrizeDistribution(((1, 1, 0),))
        with pytest.raises(ValueError):
            prize_stats(d, 2, 0)


class TestSerialization:
    def test_join_log_round_trip(self, tmp_path):
        joins = [mk_join(player="p1", prize=12_34), mk_join(player="p2", hour=15)]
        path = tmp_path / "joins.csv"
        write_join_log(path, joins)
        assert read_join_log(path) == joins

    def test_catalog_round_trip(self, tmp_path):
        contests = [
            mk_contest(),
            mk_contest(
                contest_id="c2",
                contest_type=ContestType.MEGA,
                contest_size=100,
                tiers=((1, 1, 50 * CENTS), (2, 4, 10 * CENTS)),
                guaranteed=True,
                multi_entry=True,
            ),
        ]
        path = tmp_path / "contests.csv"
        write_catalog(path, contests)
        assert read_catalog(path) == contests

    def test_schedule_round_trip(self, tmp_path):
        matches = [MatchRecord("m1", day_start(DAY0) + 15 * 3600, ("c1", "c2"))]
        path = tmp_path / "matches.csv"
        write_schedule(path, matches)
        assert read_schedule(path) == matches

    GOOD_JOIN = "p1,c1,m1,2025-01-03T07:30:00Z,10.00,0.00\n"

    @pytest.mark.parametrize("bad, message", [
        ("p2,c1,m1,2025-01-03 07:30:00,10.00,0.00\n", "timestamp"),
        ("p2,c1,m1\n", "expected 6 fields, got 3"),
        ("p2,c1,m1,2025-01-03T07:30:00Z,ten,0.00\n", "currency"),
        ("p2,c1,m1,2025-01-03T07:30:00Z,10.00,0.00,extra\n", "expected 6 fields, got 7"),
    ])
    def test_bad_join_row_is_data_error_naming_the_line(self, tmp_path, bad, message):
        path = tmp_path / "joins.csv"
        path.write_text(self.GOOD_JOIN + bad)
        with pytest.raises(DataError, match=message) as info:
            read_join_log(path)
        assert f"{path}:2:" in str(info.value)

    @pytest.mark.parametrize("bad, message", [
        ("m2,2025-01-03T25:00:00Z,c3\n", "timestamp"),
        ("m2\n", "expected 3 fields, got 1"),
    ])
    def test_bad_schedule_row_is_data_error_naming_the_line(self, tmp_path, bad, message):
        path = tmp_path / "matches.csv"
        path.write_text("m1,2025-01-03T15:00:00Z,c1;c2\n" + bad)
        with pytest.raises(DataError, match=message) as info:
            read_schedule(path)
        assert f"{path}:2:" in str(info.value)

    @pytest.mark.parametrize("amount", BAD_AMOUNTS)
    @pytest.mark.parametrize("field", [4, 5])
    def test_bad_join_amount_is_data_error_naming_the_line(self, tmp_path, field, amount):
        path = tmp_path / "joins.csv"
        row = self.GOOD_JOIN.rstrip("\n").split(",")
        row[field] = amount
        path.write_text(self.GOOD_JOIN + ",".join(row) + "\n")
        with pytest.raises(DataError, match="currency") as info:
            read_join_log(path)
        assert f"{path}:2:" in str(info.value)

    @pytest.mark.parametrize("amount", BAD_AMOUNTS)
    @pytest.mark.parametrize("field", [3, 4, 7])
    def test_bad_catalog_amount_is_data_error_naming_the_line(self, tmp_path, field, amount):
        path = tmp_path / "contests.csv"
        write_catalog(path, [mk_contest(), mk_contest(contest_id="c2")])
        lines = path.read_text().splitlines()
        row = lines[1].split(",")
        # field 7 is the prize tiers, "from-to:prize"
        row[field] = f"1-1:{amount}" if field == 7 else amount
        path.write_text(lines[0] + "\n" + ",".join(row) + "\n")
        with pytest.raises(DataError, match="currency") as info:
            read_catalog(path)
        assert f"{path}:2:" in str(info.value)

    def test_bad_catalog_row_is_data_error(self, tmp_path):
        path = tmp_path / "contests.csv"
        write_catalog(path, [mk_contest()])
        path.write_text(path.read_text().replace("Public", "Private"))
        with pytest.raises(DataError, match=f"{path}:1:"):
            read_catalog(path)
