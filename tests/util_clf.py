"""Reference Common-Log-Format parser for the ingest tests.

``parse_clf_lines`` is the parser as it was before the ingest checked
every field inside one match: a named-group match per line, then a split
of the request text, then the status, size and time checks in that order.
It is the oracle ``flashcrowd.trace.parse_clf_lines`` is held to, output
for output: the counts with their key order, the skipped count, and the
interner's paths with their order. It keeps no debug record.
"""

from __future__ import annotations

import re
from typing import Iterable

from flashcrowd.trace import ContentInterner, MalformedLine, _parse_clf_time

_CLF_RE = re.compile(
    r'^(?P<client>\S+)\s+(?P<ident>\S+)\s+(?P<user>\S+)\s+'
    r'\[(?P<time>[^\]]+)\]\s+"(?P<request>[^"]*)"\s+'
    r"(?P<status>\d{3})\s+(?P<size>\S+)\s*$"
)


def _parse_line(line: str, stamps: dict[str, float]) -> tuple[float, str]:
    """The epoch seconds and request path of one Common-Log-Format line.

    Fields are checked in the order regex, request, status, size, time;
    ``stamps`` memoises the time text of successful parses. Any status in
    100-599 is kept: filtering by status is a separate policy.
    """
    m = _CLF_RE.match(line)
    if m is None:
        raise MalformedLine(f"unparseable line: {line!r}")
    time_text, request_text, status_text, size_text = m.group("time", "request", "status", "size")
    request = request_text.split()
    if len(request) < 2:
        raise MalformedLine(f"bad request field: {request_text!r}")
    if not 100 <= int(status_text) <= 599:
        raise MalformedLine(f"status out of range: {status_text}")
    if size_text != "-" and not size_text.isdigit():
        raise MalformedLine(f"bad size field: {size_text!r}")
    timestamp = stamps.get(time_text)
    if timestamp is None:
        timestamp = stamps[time_text] = _parse_clf_time(time_text)
    return timestamp, request[1]


def parse_clf_lines(
    lines: Iterable[str], interner: ContentInterner
) -> tuple[dict[float, dict[int, int]], int]:
    """Count a stream of log lines per second and content, skipping and
    counting blank and malformed ones.

    Returns ``(counts, skipped)``: ``counts`` maps each distinct epoch
    second to ``{content id: accesses}``, both in first-seen order. A path
    is interned only once its line has passed every check.
    """
    stamps: dict[str, float] = {}
    counts: dict[float, dict[int, int]] = {}
    skipped = 0
    for line in lines:
        if not line.strip():
            skipped += 1
            continue
        try:
            timestamp, path = _parse_line(line, stamps)
        except MalformedLine:
            skipped += 1
            continue
        cid = interner.intern(path)
        at = counts.get(timestamp)
        if at is None:
            counts[timestamp] = {cid: 1}
        else:
            at[cid] = at.get(cid, 0) + 1
    return counts, skipped
