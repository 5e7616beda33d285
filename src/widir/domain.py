"""Core domain types: joins, contests, prize distributions, matches.

Conventions used everywhere in the package:

- currency values are integer hundredths ("cents") so that monetary
  aggregates are exact; text artifacts format them as 2-digit decimals;
- timestamps are integer epoch seconds UTC;
- a "day" is a UTC calendar date, with day boundaries at 00:00 UTC.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import DataError
from .textio import write_replace

# --- money -----------------------------------------------------------------

CENTS = 100


_MONEY = re.compile(r"(-?)([0-9]*)(?:\.([0-9]{1,2}))?")


@functools.lru_cache(maxsize=4096)
def parse_money(text: str) -> int:
    """Parse a decimal currency string ("12.50", "12", "12.5", ".5") into cents.

    An optional "-", digits, and an optional "." with one or two digits;
    anything else (no digits at all, a third decimal, a sign after the
    point) raises ValueError. Logs repeat a few amounts (fees, zero
    prizes) many times, so results are cached; a rejected text is not.
    """
    m = _MONEY.fullmatch(text.strip())
    if m is None or not (m[2] or m[3]):
        raise ValueError(f"not a currency amount: {text!r}")
    sign, whole, frac = m.groups()
    cents = int(whole or "0") * CENTS + int((frac or "0").ljust(2, "0"))
    return -cents if sign else cents


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


def format_ts(ts: int) -> str:
    """ISO-8601 UTC timestamp at second resolution, e.g. 2025-01-03T17:30:00Z."""
    return dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


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
    violations: list[str] = []
    if spec.entry_fee < 0:
        violations.append("entry_fee negative")
    if spec.prize_money < 0:
        violations.append("prize_money negative")
    if spec.contest_size < 2:
        violations.append("contest_size below 2")

    tiers = spec.prize_distribution.tiers
    if not tiers:
        violations.append("prize_distribution has no tiers")
        return violations

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
    if tiers[-1][1] > spec.contest_size:
        violations.append("prize_distribution exceeds contest_size")
    prizes = [prize for _, _, prize in tiers]
    if any(a < b for a, b in zip(prizes, prizes[1:])):
        violations.append("prize_per_rank not non-increasing")
    payout = spec.prize_distribution.total_payout()
    if spec.prize_money > 0 and payout > spec.prize_money * (1 + 1e-6):
        violations.append("prize_distribution payout exceeds prize_money")
    return violations


def validate_catalog(contests: Sequence[ContestSpec], matches: Sequence[MatchRecord]) -> list[str]:
    """Cross-record checks: referential integrity and one Mega per match."""
    violations: list[str] = []
    by_match: dict[str, list[ContestSpec]] = {}
    for c in contests:
        by_match.setdefault(c.match_id, []).append(c)
    match_ids = {m.match_id for m in matches}
    for c in contests:
        if c.match_id not in match_ids:
            violations.append(f"contest {c.contest_id} references unknown match {c.match_id}")
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
# Newline-delimited UTF-8 records, comma-separated, no header; field order is
# the order the types declare. Prize tiers inline as `from-to:prize` triplets
# joined by `;`.


def _format_tiers(d: PrizeDistribution) -> str:
    return ";".join(f"{lo}-{hi}:{format_money(p)}" for lo, hi, p in d.tiers)


def _parse_tiers(text: str) -> PrizeDistribution:
    tiers = []
    if text:
        for part in text.split(";"):
            ranks, prize = part.split(":")
            lo, hi = ranks.split("-")
            tiers.append((int(lo), int(hi), parse_money(prize)))
    return PrizeDistribution(tuple(tiers))


def _format_bool(b: bool) -> str:
    return "true" if b else "false"


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"not a boolean: {text!r}")


def write_join_log(path, joins: Iterable[JoinRecord]) -> None:
    with write_replace(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        for r in joins:
            w.writerow(
                (
                    r.player_id,
                    r.contest_id,
                    r.match_id,
                    format_ts(r.joining_time),
                    format_money(r.entry_fee_paid),
                    format_money(r.prize_won),
                )
            )


def _read_rows(path, n_fields: int, parse) -> list:
    """parse(row) for each CSV row of `path`; a bad row is a DataError naming path:line,
    and a missing, unreadable or non-UTF-8 file one naming the path."""
    out = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                try:
                    if len(row) != n_fields:
                        raise ValueError(f"expected {n_fields} fields, got {len(row)}")
                    out.append(parse(row))
                except ValueError as exc:
                    raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc
    return out


def read_join_log(path) -> list[JoinRecord]:
    return _read_rows(path, 6, lambda row: JoinRecord(
        player_id=row[0],
        contest_id=row[1],
        match_id=row[2],
        joining_time=parse_ts(row[3]),
        entry_fee_paid=parse_money(row[4]),
        prize_won=parse_money(row[5]),
    ))


def write_catalog(path, contests: Iterable[ContestSpec]) -> None:
    with write_replace(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        for c in contests:
            w.writerow(
                (
                    c.contest_id,
                    c.template_id,
                    c.match_id,
                    format_money(c.entry_fee),
                    format_money(c.prize_money),
                    c.contest_size,
                    c.contest_type.value,
                    _format_tiers(c.prize_distribution),
                    _format_bool(c.guaranteed),
                    _format_bool(c.multi_entry),
                )
            )


def read_catalog(path) -> list[ContestSpec]:
    return _read_rows(path, 10, lambda row: ContestSpec(
        contest_id=row[0],
        template_id=row[1],
        match_id=row[2],
        entry_fee=parse_money(row[3]),
        prize_money=parse_money(row[4]),
        contest_size=int(row[5]),
        contest_type=ContestType(row[6]),
        prize_distribution=_parse_tiers(row[7]),
        guaranteed=_parse_bool(row[8]),
        multi_entry=_parse_bool(row[9]),
    ))


def write_schedule(path, matches: Iterable[MatchRecord]) -> None:
    with write_replace(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        for m in matches:
            w.writerow((m.match_id, format_ts(m.start_time), ";".join(m.contest_ids)))


def read_schedule(path) -> list[MatchRecord]:
    return _read_rows(path, 3, lambda row: MatchRecord(
        match_id=row[0],
        start_time=parse_ts(row[1]),
        contest_ids=tuple(row[2].split(";")) if row[2] else (),
    ))


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
