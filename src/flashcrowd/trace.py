"""Trace data model, the access-log ingest and the binned CSV format.

The ingest keeps what the detector reads from a log: how many accesses
each content got in each second, then in each bin. ``parse_clf_lines``
turns Common-Log-Format lines into ``{timestamp: {content id: accesses}}``
with no object per line, and ``bin_records`` adds those counts into
fixed-width bins aligned to multiples of the bin width, the earliest bin
with an access becoming bin 0.

Content identity is the request path with its query string stripped; ids
are interned in first-seen order, so they are deterministic for a given
input. One regex match per line checks every field but the status range,
the size digits and the time. Three per-call memos do the rest once per
distinct text: the status check per status text, the count bucket per
valid time text and the content id per kept path, each bounded by the
distinct texts of its kind, not by the number of lines.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Iterable

logger = logging.getLogger(__name__)


class MalformedLine(ValueError):
    """A log line that cannot be parsed; callers may skip and count."""


class BadHeader(ValueError):
    pass


class NegativeCount(ValueError):
    pass


class NonIntegerField(ValueError):
    pass


class NegativeIndex(ValueError):
    pass


class ContentInterner:
    """Assigns ascending integer ids to paths, query string stripped,
    in first-seen order."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    def intern(self, path: str) -> int:
        key = path.split("?", 1)[0]
        cid = self._ids.get(key)
        if cid is None:
            cid = len(self._ids)
            self._ids[key] = cid
        return cid

    def __len__(self) -> int:
        return len(self._ids)

    def paths(self) -> dict[str, int]:
        return dict(self._ids)


@dataclass
class BinnedTrace:
    """Per-bin access counts per content id.

    Bin ``t`` covers real time ``[origin + t*bin_width, origin + (t+1)*bin_width)``.
    Empty bins are materialized so consumers see time uniformly.
    """

    bin_width: float
    bins: list[dict[int, int]] = field(default_factory=list)
    catalog: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.bin_width > 0:
            raise ValueError("bin_width must be positive")
        for b in self.bins:
            for cid, count in b.items():
                if count < 0:
                    raise NegativeCount(f"negative count for content {cid}")
                self.catalog.add(cid)

    @property
    def horizon(self) -> int:
        return len(self.bins)

    def total_count(self) -> int:
        return sum(sum(b.values()) for b in self.bins)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinnedTrace):
            return NotImplemented
        return (
            self.bin_width == other.bin_width
            and self.catalog == other.catalog
            and len(self.bins) == len(other.bins)
            and all(
                {c: n for c, n in a.items() if n} == {c: n for c, n in b.items() if n}
                for a, b in zip(self.bins, other.bins)
            )
        )


# Groups: time text, path without its query, status, size. A blank line
# fails, and the lookahead fails a one-token request such as "GET ". The
# pattern must compile on Python 3.10: no possessive "++" and no "(?>...)".
_CLF_RE = re.compile(
    r'\S+\s+\S+\s+\S+\s+\[([^\]]+)\]\s+"\s*[^\s"]+\s+(?=[^\s"])([^\s"?]*)[^"]*"\s+'
    r"(\d{3})\s+(\S+)\s*$"
)

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}

_TIME_RE = re.compile(
    r"^(\d{2})/([A-Za-z]{3})/(\d{4}):(\d{2}):(\d{2}):(\d{2})\s+([+-])(\d{2})(\d{2})$"
)


def _parse_clf_time(text: str) -> float:
    m = _TIME_RE.match(text.strip())
    if m is None:
        raise MalformedLine(f"bad timestamp: {text!r}")
    day, mon, year, hh, mm, ss, sign, oh, om = m.groups()
    month = _MONTHS.get(mon.title())
    if month is None:
        raise MalformedLine(f"bad month: {mon!r}")
    offset = timedelta(hours=int(oh), minutes=int(om))
    if sign == "-":
        offset = -offset
    try:
        dt = datetime(
            int(year), month, int(day), int(hh), int(mm), int(ss),
            tzinfo=timezone(offset),
        )
    except ValueError as exc:
        raise MalformedLine(str(exc)) from exc
    return dt.timestamp()


def parse_clf_lines(
    lines: Iterable[str], interner: ContentInterner
) -> tuple[dict[float, dict[int, int]], int]:
    """Count a stream of log lines per second and content, skipping and
    counting blank and malformed ones; any status in 100-599 is kept.

    Returns ``(counts, skipped)``: ``counts`` maps each distinct epoch
    second to ``{content id: accesses}``, both in first-seen order. A path
    is interned only once its line has passed every check. The per-call
    memos (status check per status text, count bucket per valid time
    text, id per kept path) grow with distinct texts, not with lines; an
    invalid time text is parsed again each time it recurs.
    """
    statuses: dict[str, bool] = {}
    buckets: dict[str, dict[int, int]] = {}
    ids: dict[str, int] = {}
    counts: dict[float, dict[int, int]] = {}
    read = skipped = 0
    for read, m in enumerate(map(_CLF_RE.match, lines), 1):
        if m is None:
            skipped += 1
            continue
        time_text, path, status, size = m.groups()
        ok = statuses.get(status)
        if ok is None:
            ok = statuses[status] = 100 <= int(status) <= 599
        if not ok or not (size == "-" or size.isdigit()):
            skipped += 1
            continue
        at = buckets.get(time_text)
        if at is None:
            try:
                timestamp = _parse_clf_time(time_text)
            except MalformedLine:
                skipped += 1
                continue
            at = buckets[time_text] = counts.setdefault(timestamp, {})
        cid = ids.get(path)
        if cid is None:
            cid = ids[path] = interner.intern(path)
        at[cid] = at.get(cid, 0) + 1
    logger.debug(
        "parsed %d log lines: %d skipped, %d distinct timestamps", read, skipped, len(buckets)
    )
    return counts, skipped


def bin_records(
    counts: dict[float, dict[int, int]], bin_width: float, interner: ContentInterner
) -> BinnedTrace:
    """Add ``parse_clf_lines`` counts into a BinnedTrace, all bins materialized.

    ``interner`` is not read; the ingest benchmark passes it.
    """
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    # Counts keyed by absolute bin index; floor is monotone, so the least
    # index is the bin of the earliest timestamp and becomes bin 0.
    by_bin: dict[int, dict[int, int]] = {}
    for timestamp, at in counts.items():
        t = math.floor(timestamp / bin_width)
        b = by_bin.get(t)
        if b is None:
            by_bin[t] = dict(at)
        else:
            for cid, n in at.items():
                b[cid] = b.get(cid, 0) + n
    if not by_bin:
        return BinnedTrace(bin_width=bin_width)
    bins = [by_bin.get(t, {}) for t in range(min(by_bin), max(by_bin) + 1)]
    return BinnedTrace(bin_width=bin_width, bins=bins)


CSV_HEADER = ["t", "content_id", "count"]


def write_csv_trace(trace: BinnedTrace, path: str) -> None:
    """Write a trace as ``t,content_id,count`` rows sorted by (t, content_id).

    Zero counts are suppressed except for pinning rows that preserve the
    horizon (a zero row in the final bin when it is empty) and the catalog
    (a zero row at t=0 for contents that never appear), so that
    ``read_csv_trace`` restores an identical trace. The format pins a
    horizon only through a content, so bins with an empty catalog raise
    ``ValueError`` before the file is opened.
    """
    if trace.bins and not trace.catalog:
        raise ValueError(f"cannot write horizon {trace.horizon} with an empty catalog")
    rows: list[tuple[int, int, int]] = []
    seen: set[int] = set()
    last_bin_has_row = False
    for t, b in enumerate(trace.bins):
        for cid, count in b.items():
            if count > 0:
                rows.append((t, cid, count))
                seen.add(cid)
                if t == trace.horizon - 1:
                    last_bin_has_row = True
    for cid in sorted(trace.catalog - seen):
        rows.append((0, cid, 0))
    if trace.horizon > 0 and not last_bin_has_row:
        rows.append((trace.horizon - 1, min(trace.catalog), 0))
    rows.sort()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def read_csv_trace(path: str, bin_width: float = 1.0) -> BinnedTrace:
    """Read a ``t,content_id,count`` CSV back into a BinnedTrace."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise BadHeader("empty file") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise BadHeader(f"expected header {','.join(CSV_HEADER)!r}, got {header!r}")
        entries: list[tuple[int, int, int]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise NonIntegerField(f"line {lineno}: expected 3 fields, got {len(row)}")
            try:
                t, cid, count = (int(x) for x in row)
            except ValueError:
                raise NonIntegerField(f"line {lineno}: non-integer field in {row!r}") from None
            if count < 0:
                raise NegativeCount(f"line {lineno}: negative count {count}")
            if t < 0 or cid < 0:
                raise NegativeIndex(f"line {lineno}: negative index in {row!r}")
            entries.append((t, cid, count))
    if not entries:
        return BinnedTrace(bin_width=bin_width)
    nbins = max(t for t, _, _ in entries) + 1
    bins: list[dict[int, int]] = [dict() for _ in range(nbins)]
    catalog: set[int] = set()
    for t, cid, count in entries:
        catalog.add(cid)
        if count > 0:
            bins[t][cid] = bins[t].get(cid, 0) + count
    return BinnedTrace(bin_width=bin_width, bins=bins, catalog=catalog)
