"""Core domain types: joins, contests, prize distributions, matches.

Conventions used everywhere in the package:

- currency values are integer hundredths ("cents") so that monetary
  aggregates are exact; text artifacts format them as 2-digit decimals;
- timestamps are integer epoch seconds UTC;
- a "day" is a UTC calendar date, with day boundaries at 00:00 UTC.
"""

from __future__ import annotations

import collections
import csv
import datetime as dt
import functools
import operator
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import ConfigError, DataError
from .textio import write_replace

# --- money -----------------------------------------------------------------

CENTS = 100
_INT64 = range(-(2**63), 2**63)  # the range of money amounts and contest sizes in record files

_MONEY = re.compile(r"(-?)([0-9]*)(?:\.([0-9]{1,2}))?")


@functools.lru_cache(maxsize=4096)
def parse_money(text: str) -> int:
    """Parse a decimal currency string ("12.50", "12", "12.5", ".5") into cents.

    An optional "-", digits, and an optional "." with one or two digits;
    anything else (no digits at all, a third decimal, a sign after the
    point) raises ValueError, and so does an amount whose cents do not fit
    an int64. Logs repeat a few amounts (fees, zero prizes) many times, so
    results are cached; a rejected text is not.
    """
    m = _MONEY.fullmatch(text.strip())
    if m is None or not (m[2] or m[3]):
        raise ValueError(f"not a currency amount: {text!r}")
    sign, whole, frac = m.groups()
    cents = int(whole or "0") * CENTS + int((frac or "0").ljust(2, "0"))
    cents = -cents if sign else cents
    if cents not in _INT64:
        raise ValueError(f"currency amount outside int64 cents: {text!r}")
    return cents


def format_money(cents: int) -> str:
    """Format cents as a 2-digit decimal string."""
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // CENTS}.{cents % CENTS:02d}"


def money_units(cents: int) -> float:
    """Currency value in whole units, as a float (for feature math only)."""
    return cents / CENTS


# --- time ------------------------------------------------------------------

SECONDS_PER_DAY = 86_400
_EPOCH = dt.date(1970, 1, 1)


def day_start(day: dt.date) -> int:
    """Epoch seconds of 00:00 UTC on `day`."""
    return (day - _EPOCH).days * SECONDS_PER_DAY


def day_of(ts: int) -> dt.date:
    """UTC calendar date containing epoch second `ts`."""
    return _EPOCH + dt.timedelta(days=ts // SECONDS_PER_DAY)


def epoch_day(day: dt.date) -> int:
    """Days since 1970-01-01."""
    return (day - _EPOCH).days


@functools.lru_cache(maxsize=4096)
def _date_text(days: int) -> str:
    """YYYY-MM-DD of the day `days` after 1970-01-01."""
    return (_EPOCH + dt.timedelta(days=days)).isoformat()


def format_ts(ts: int) -> str:
    """ISO-8601 UTC timestamp at second resolution, e.g. 2025-01-03T17:30:00Z.

    Logs stamp many joins on few days, so each day's date text is cached.
    """
    days, seconds = divmod(int(ts), SECONDS_PER_DAY)
    hours, seconds = divmod(seconds, 3600)
    minutes, seconds = divmod(seconds, 60)
    return f"{_date_text(days)}T{hours:02d}:{minutes:02d}:{seconds:02d}Z"


_TS = re.compile(r"([0-9]{4}-[0-9]{2}-[0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z")


@functools.lru_cache(maxsize=4096)
def _date_seconds(date: str) -> int | None:
    """Epoch seconds of 00:00 UTC on a YYYY-MM-DD date; None if there is no such date."""
    try:
        return day_start(dt.date(int(date[:4]), int(date[5:7]), int(date[8:])))
    except ValueError:
        return None


def parse_ts(text: str) -> int:
    """Epoch seconds of a `format_ts` stamp; any other form raises ValueError.

    The stamp must match YYYY-MM-DDTHH:MM:SSZ exactly, zero-padded. The
    date is checked by the `datetime.date` constructor (no month 13, no
    February 29 outside leap years) once per distinct date, whose seconds
    are cached; the time must be below 24:00:00, with no leap second.
    """
    m = _TS.fullmatch(text)
    if m is not None:
        date, hh, mm, ss = m.groups()
        base, h, mi, sec = _date_seconds(date), int(hh), int(mm), int(ss)
        if base is not None and h < 24 and mi < 60 and sec < 60:
            return base + h * 3600 + mi * 60 + sec
    raise ValueError(f"not a YYYY-MM-DDTHH:MM:SSZ timestamp: {text!r}")


def parse_day(text: str) -> dt.date:
    return dt.date.fromisoformat(text)


# --- types -----------------------------------------------------------------


class ContestType(Enum):
    PUBLIC = "Public"
    SPECIAL = "Special"
    MEGA = "Mega"


@dataclass(frozen=True, slots=True)
class PrizeDistribution:
    """Ordered payout tiers: (rank_from, rank_to, prize_per_rank_cents)."""

    tiers: tuple[tuple[int, int, int], ...]

    def total_payout(self) -> int:
        return sum((hi - lo + 1) * prize for lo, hi, prize in self.tiers)

    def winners(self) -> int:
        """Last paid rank (0 for an empty distribution)."""
        return self.tiers[-1][1] if self.tiers else 0

    def prize_at_rank(self, rank: int) -> int:
        for lo, hi, prize in self.tiers:
            if lo <= rank <= hi:
                return prize
        return 0


@dataclass(frozen=True, slots=True)
class ContestSpec:
    """One contest instance; instances regenerated on fill share template_id."""

    contest_id: str
    template_id: str
    match_id: str
    entry_fee: int
    prize_money: int
    contest_size: int
    contest_type: ContestType
    prize_distribution: PrizeDistribution
    guaranteed: bool
    multi_entry: bool


@dataclass(frozen=True, slots=True)
class JoinRecord:
    """One player-contest join event."""

    player_id: str
    contest_id: str
    match_id: str
    joining_time: int
    entry_fee_paid: int
    prize_won: int


@dataclass(frozen=True, slots=True)
class MatchRecord:
    match_id: str
    start_time: int
    contest_ids: tuple[str, ...]


# --- validation ------------------------------------------------------------


def validate_contest(spec: ContestSpec) -> list[str]:
    """Check every ContestSpec/PrizeDistribution invariant.

    Returns an empty list iff the spec is well formed; violations are
    descriptions naming the field and rule (data, not exceptions).
    """
    return list(_contest_violations(spec.entry_fee, spec.prize_money, spec.contest_size, spec.prize_distribution))


@functools.lru_cache(maxsize=4096)
def _contest_violations(
    entry_fee: int, prize_money: int, contest_size: int, distribution: PrizeDistribution
) -> tuple[str, ...]:
    """`validate_contest`'s violations, the fields it reads as arguments. A catalog
    repeats a few template shapes on many rows, so each shape is checked once."""
    violations: list[str] = []
    if entry_fee < 0:
        violations.append("entry_fee negative")
    if prize_money < 0:
        violations.append("prize_money negative")
    if contest_size < 2:
        violations.append("contest_size below 2")

    tiers = distribution.tiers
    if not tiers:
        violations.append("prize_distribution has no tiers")
        return tuple(violations)

    expected_from = 1
    contiguous = True
    for lo, hi, prize in tiers:
        if lo != expected_from or hi < lo:
            contiguous = False
        if prize < 0:
            violations.append("prize_per_rank negative")
        expected_from = hi + 1
    if not contiguous:
        violations.append("prize_distribution tiers not contiguous from rank 1")
    if tiers[-1][1] > contest_size:
        violations.append("prize_distribution exceeds contest_size")
    prizes = [prize for _, _, prize in tiers]
    if any(a < b for a, b in zip(prizes, prizes[1:])):
        violations.append("prize_per_rank not non-increasing")
    payout = distribution.total_payout()
    if prize_money > 0 and payout > prize_money * (1 + 1e-6):
        violations.append("prize_distribution payout exceeds prize_money")
    return tuple(violations)


def validate_catalog(contests: Sequence[ContestSpec], matches: Sequence[MatchRecord]) -> list[str]:
    """Cross-record checks only: referential integrity, one row per contest and per match, one Mega per match.

    Each contest's own rules are checked where its row is read (`read_catalog`).
    """
    violations: list[str] = []
    by_match: dict[str, list[ContestSpec]] = {}
    for c in contests:
        by_match.setdefault(c.match_id, []).append(c)
    rows = collections.Counter(m.match_id for m in matches)
    for c in contests:
        if c.match_id not in rows:
            violations.append(f"contest {c.contest_id} references unknown match {c.match_id}")
    violations += [f"match {mid} is scheduled on {n} rows" for mid, n in rows.items() if n > 1]
    ids = collections.Counter(c.contest_id for c in contests)
    violations += [f"contest {cid} is listed on {n} rows" for cid, n in ids.items() if n > 1]
    for m in matches:
        if not m.contest_ids:
            violations.append(f"match {m.match_id} has no contests")
        mega_templates = {
            c.template_id for c in by_match.get(m.match_id, []) if c.contest_type is ContestType.MEGA
        }
        if len(mega_templates) != 1:
            violations.append(f"match {m.match_id} has {len(mega_templates)} Mega contests, expected 1")
        known = {c.contest_id for c in by_match.get(m.match_id, [])}
        for cid in m.contest_ids:
            if cid not in known:
                violations.append(f"match {m.match_id} lists unknown contest {cid}")
    return violations


# --- derived stats ----------------------------------------------------------


def prize_stats(d: PrizeDistribution, contest_size: int, prize_money: int) -> tuple[float, float]:
    """Summary of a payout structure: (top_prize_fraction, winner_fraction).

    top_prize_fraction = tier-1 prize / prize_money;
    winner_fraction = last paid rank / contest_size.
    """
    if prize_money <= 0:
        raise ValueError("prize_money must be positive")
    top = d.tiers[0][2] if d.tiers else 0
    return top / prize_money, d.winners() / contest_size


# --- record serialization ---------------------------------------------------
#
# Newline-delimited UTF-8 records, comma-separated, no header. Each record file
# declares its columns once, as a table of (field, format, parse) in file
# order, which is also its record type's field order: `write_records` reads
# each field by name (a dotted name reads a field's field), `read_records`
# passes the parsed fields by position.
# Prize tiers inline as `from-to:prize` triplets joined by `;`.


def _format_tiers(d: PrizeDistribution) -> str:
    return ";".join(f"{lo}-{hi}:{format_money(p)}" for lo, hi, p in d.tiers)


@functools.lru_cache(maxsize=4096)
def _parse_tiers(text: str) -> PrizeDistribution:
    """A catalog repeats a few distributions on many rows, so results are cached; a rejected text is not."""
    tiers = []
    if text:
        for part in text.split(";"):
            ranks, prize = part.split(":")
            lo, hi = ranks.split("-")
            tiers.append((int(lo), int(hi), parse_money(prize)))
    return PrizeDistribution(tuple(tiers))


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int64(text: str) -> int:
    if (value := int(text)) not in _INT64:
        raise ValueError(f"integer outside int64: {text!r}")
    return value


_JOIN_LOG = (
    ("player_id", str, str), ("contest_id", str, str), ("match_id", str, str),
    ("joining_time", format_ts, parse_ts),
    ("entry_fee_paid", format_money, parse_money), ("prize_won", format_money, parse_money),
)
_CATALOG = (
    ("contest_id", str, str), ("template_id", str, str), ("match_id", str, str),
    ("entry_fee", format_money, parse_money), ("prize_money", format_money, parse_money),
    ("contest_size", str, _parse_int64), ("contest_type", operator.attrgetter("value"), ContestType),
    ("prize_distribution", _format_tiers, _parse_tiers),
    ("guaranteed", lambda b: "true" if b else "false", _parse_bool),
    ("multi_entry", lambda b: "true" if b else "false", _parse_bool),
)
_SCHEDULE = (
    ("match_id", str, str), ("start_time", format_ts, parse_ts),
    ("contest_ids", ";".join, lambda text: tuple(text.split(";")) if text else ()),
)


def write_records(path, table, records: Iterable) -> None:
    """Each record as one row of `table`'s columns, formatted a column at a time."""
    records = list(records)
    columns = [map(fmt, map(operator.attrgetter(name), records)) for name, fmt, _ in table]
    with write_replace(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(zip(*columns))


def read_records(path, table, make) -> list:
    """make(*fields) for each CSV row of `path`, each of `table`'s columns read by its parser.
    A bad row (a ValueError, or a ConfigError from a record type's rules) is a DataError naming
    path:line, a missing, unreadable or non-UTF-8 file one naming the path."""
    parsers = [parse for _, _, parse in table]
    out = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                try:
                    if len(row) != len(parsers):
                        raise ValueError(f"expected {len(parsers)} fields, got {len(row)}")
                    out.append(make(*map(operator.call, parsers, row)))
                except (ValueError, ConfigError) as exc:
                    raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc
    return out


def _contest(*fields) -> ContestSpec:
    """A catalog row's contest; one that breaks a contest rule is a bad row."""
    spec = ContestSpec(*fields)
    if violations := validate_contest(spec):
        raise ValueError(f"invalid catalog: contest {spec.contest_id}: {violations[0]}")
    return spec


def write_join_log(path, joins: Iterable[JoinRecord]) -> None:
    write_records(path, _JOIN_LOG, joins)


def read_join_log(path) -> list[JoinRecord]:
    return read_records(path, _JOIN_LOG, JoinRecord)


def write_catalog(path, contests: Iterable[ContestSpec]) -> None:
    write_records(path, _CATALOG, contests)


def read_catalog(path) -> list[ContestSpec]:
    return read_records(path, _CATALOG, _contest)


def write_schedule(path, matches: Iterable[MatchRecord]) -> None:
    write_records(path, _SCHEDULE, matches)


def read_schedule(path) -> list[MatchRecord]:
    return read_records(path, _SCHEDULE, MatchRecord)


def index_contests(contests: Sequence[ContestSpec]) -> dict[str, ContestSpec]:
    by_id = {c.contest_id: c for c in contests}
    if len(by_id) != len(contests):
        raise DataError("duplicate contest_id in catalog")
    return by_id


def match_templates(contests: Sequence[ContestSpec]) -> dict[str, list[ContestSpec]]:
    """Per match, one representative ContestSpec per template_id (sorted)."""
    seen: dict[str, dict[str, ContestSpec]] = {}
    for c in contests:
        seen.setdefault(c.match_id, {}).setdefault(c.template_id, c)
    return {
        mid: [tpls[t] for t in sorted(tpls)] for mid, tpls in seen.items()
    }
