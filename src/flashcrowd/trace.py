"""Trace data model plus parsers for access logs and binned CSV traces.

Content identity is the normalized request path (query string stripped);
ids are interned in first-seen order so they are deterministic for a given
input. Time is discretized into fixed-width bins aligned to multiples of
the bin width, with the earliest record falling in bin 0.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Iterable


class MalformedLine(ValueError):
    """A log line that cannot be parsed; callers may skip and count."""


class BadHeader(ValueError):
    pass


class NegativeCount(ValueError):
    pass


class NonIntegerField(ValueError):
    pass


@dataclass(frozen=True)
class AccessLogRecord:
    client_id: str
    timestamp: float
    method: str
    object_path: str
    status: int
    size: int
    content_id: int | None = None


class ContentInterner:
    """Assigns ascending integer ids to normalized paths, first-seen order."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    @staticmethod
    def normalize(path: str) -> str:
        return path.split("?", 1)[0]

    def intern(self, path: str) -> int:
        key = self.normalize(path)
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
        if self.bin_width <= 0:
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


_CLF_RE = re.compile(
    r'^(?P<client>\S+)\s+(?P<ident>\S+)\s+(?P<user>\S+)\s+'
    r'\[(?P<time>[^\]]+)\]\s+"(?P<request>[^"]*)"\s+'
    r"(?P<status>\d{3})\s+(?P<size>\S+)\s*$"
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


def parse_clf_line(line: str, interner: ContentInterner | None = None) -> AccessLogRecord:
    """Parse one Common-Log-Format line.

    The parser does not filter by status; that is a separate policy. When an
    interner is given, the record carries the content id of its normalized
    path.
    """
    m = _CLF_RE.match(line)
    if m is None:
        raise MalformedLine(f"unparseable line: {line!r}")
    request = m.group("request").split()
    if len(request) < 2:
        raise MalformedLine(f"bad request field: {m.group('request')!r}")
    status = int(m.group("status"))
    if not 100 <= status <= 599:
        raise MalformedLine(f"status out of range: {status}")
    size_text = m.group("size")
    if size_text == "-":
        size = 0
    elif size_text.isdigit():
        size = int(size_text)
    else:
        raise MalformedLine(f"bad size field: {size_text!r}")
    path = request[1]
    return AccessLogRecord(
        client_id=m.group("client"),
        timestamp=_parse_clf_time(m.group("time")),
        method=request[0],
        object_path=path,
        status=status,
        size=size,
        content_id=interner.intern(path) if interner is not None else None,
    )


def parse_clf_lines(
    lines: Iterable[str],
    interner: ContentInterner | None = None,
    statuses: set[int] | None = None,
) -> tuple[list[AccessLogRecord], int]:
    """Parse a stream of log lines, skipping and counting malformed ones.

    ``statuses`` optionally keeps only matching status codes (applied after
    parsing, so skipped-by-status lines are not counted as malformed).
    """
    if interner is None:
        interner = ContentInterner()
    records: list[AccessLogRecord] = []
    skipped = 0
    for line in lines:
        if not line.strip():
            skipped += 1
            continue
        try:
            rec = parse_clf_line(line, interner)
        except MalformedLine:
            skipped += 1
            continue
        if statuses is not None and rec.status not in statuses:
            continue
        records.append(rec)
    return records, skipped


def bin_records(
    records: Iterable[AccessLogRecord],
    bin_width: float,
    interner: ContentInterner | None = None,
) -> BinnedTrace:
    """Aggregate records into a BinnedTrace with all bins materialized."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if interner is None:
        interner = ContentInterner()
    pairs: list[tuple[float, int]] = []
    for rec in records:
        cid = rec.content_id
        if cid is None:
            cid = interner.intern(rec.object_path)
        pairs.append((rec.timestamp, cid))
    if not pairs:
        return BinnedTrace(bin_width=bin_width)
    base = math.floor(min(ts for ts, _ in pairs) / bin_width)
    indexed = [(math.floor(ts / bin_width) - base, cid) for ts, cid in pairs]
    nbins = max(t for t, _ in indexed) + 1
    bins: list[dict[int, int]] = [dict() for _ in range(nbins)]
    for t, cid in indexed:
        bins[t][cid] = bins[t].get(cid, 0) + 1
    return BinnedTrace(bin_width=bin_width, bins=bins)


CSV_HEADER = ["t", "content_id", "count"]


def write_csv_trace(trace: BinnedTrace, path: str) -> None:
    """Write a trace as ``t,content_id,count`` rows sorted by (t, content_id).

    Zero counts are suppressed except for pinning rows that preserve the
    horizon (a zero row in the final bin when it is empty) and the catalog
    (a zero row at t=0 for contents that never appear), so that
    ``read_csv_trace`` restores an identical trace.
    """
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
    if trace.horizon > 0 and not last_bin_has_row and trace.catalog:
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
                raise NonIntegerField(f"line {lineno}: negative index in {row!r}")
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
