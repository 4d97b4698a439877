import logging
import random
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util_clf
from flashcrowd.generator import ContentProfile, GeneratorConfig, generate
from flashcrowd.trace import (
    BadHeader,
    BinnedTrace,
    ContentInterner,
    NegativeCount,
    NegativeIndex,
    NonIntegerField,
    bin_records,
    parse_clf_lines,
    read_csv_trace,
    write_csv_trace,
)

SAMPLE = '282 - - [30/Apr/1998:21:31:12 +0000] "GET /images/hm_bg.jpg HTTP/1.0" 200 24736'


def _parse(*lines):
    interner = ContentInterner()
    counts, skipped = parse_clf_lines(lines, interner)
    return counts, skipped, interner.paths()


def test_parse_clf_sample_entry():
    # 1998-04-30T21:31:12 UTC
    assert _parse(SAMPLE) == ({893971872.0: {0: 1}}, 0, {"/images/hm_bg.jpg": 0})


def test_parse_clf_timezone_applied():
    counts, skipped, _ = _parse(SAMPLE, SAMPLE.replace("+0000", "+0200"))
    assert list(counts) == [893971872.0, 893971872.0 - 2 * 3600]
    assert skipped == 0


def test_parse_clf_rejects_empty_and_garbage():
    bad = [
        "",
        "not a log line at all",
        SAMPLE.replace("200", "999"),
        SAMPLE.replace("[30/Apr/1998:21:31:12 +0000]", "[bogus]"),
    ]
    for line in bad:
        assert _parse(line) == ({}, 1, {})


def test_parse_clf_keeps_error_statuses():
    assert _parse(SAMPLE.replace(" 200 ", " 404 "))[0] == {893971872.0: {0: 1}}


def test_parse_clf_dash_size():
    assert _parse(SAMPLE.replace("24736", "-"))[0] == {893971872.0: {0: 1}}


def test_interner_first_seen_order_and_query_strip():
    it = ContentInterner()
    assert it.intern("/a?x=1") == 0
    assert it.intern("/b") == 1
    assert it.intern("/a?y=2") == 0
    assert it.intern("/a") == 0
    assert len(it) == 2


def test_parse_clf_lines_skip_and_count():
    counts, skipped, _ = _parse(SAMPLE, "", "garbage", SAMPLE.replace("hm_bg", "other"))
    assert skipped == 2
    assert counts == {893971872.0: {0: 1, 1: 1}}


def _line(stamp, path, status="200", size="10", request=None):
    request = request if request is not None else f"GET {path} HTTP/1.1"
    return f'10.0.0.1 - - [{stamp}] "{request}" {status} {size}'


def test_parse_clf_lines_matches_per_line_parse():
    # Repeated stamps in three zones, with each malformed kind the ingest
    # benchmark injects; the bad-time lines carry paths of their own, so
    # interning one of them before rejecting it would show in paths().
    bad_month = _line("05/Xyz/2017:10:00:00 +0000", "/bad-month")
    bad_day = _line("31/Feb/2017:10:00:00 +0000", "/bad-day")
    lines = [
        _line("14/Jul/2017:10:00:00 +0000", "/a?x=1"),
        bad_day,
        _line("14/Jul/2017:10:00:00 +0000", "/b"),
        _line("14/Jul/2017:12:00:00 +0200", "/a"),
        "",
        _line("14/Jul/2017:10:00:01 +0000", "/c", size="-"),
        bad_month,
        _line("14/Jul/2017:04:30:00 -0530", "/d"),
        _line("14/Jul/2017:10:00:00 +0000", "/bad-status", status="999"),
        _line("14/Jul/2017:10:00:00 +0000", "/bad-size", size="12kb"),
        _line("14/Jul/2017:10:00:00 +0000", "/short", request="GET"),
        "   ",
        "not a log line at all",
        bad_day,
        _line("14/Jul/2017:04:30:00 -0530", "/b", status="404"),
        _line("14/Jul/2017:10:00:01 +0000", "/a"),
    ]
    counts, skipped, paths = _parse(*lines)
    assert skipped == 9
    assert paths == {"/a": 0, "/b": 1, "/c": 2, "/d": 3}
    # Every good line lands in one of two seconds, whatever its zone.
    assert counts == {1500026400.0: {0: 2, 1: 2, 3: 1}, 1500026401.0: {2: 1, 0: 1}}
    assert list(counts[1500026400.0]) == [0, 1, 3]

    for bad in (bad_month, bad_day):
        assert _parse(bad) == ({}, 1, {})


_ORIGIN = 1500026400  # 14/Jul/2017:10:00:00 UTC, a multiple of 60 s
_ZONES = [timezone.utc, timezone(timedelta(hours=2)), timezone(-timedelta(hours=5, minutes=30))]


def test_ingest_returns_the_generated_trace():
    # One CLF line per access of a generated trace, stamped in three zones
    # with a few seconds per bin so stamps repeat; then every malformed kind
    # at random places. Parse and bin in the benchmark's call shape.
    config = GeneratorConfig([ContentProfile(c, 5, 2.0, 3.0) for c in range(6)], 10, 60.0, 3)
    generated = generate(config)
    assert generated.bins[0] and generated.bins[-1]
    rng = random.Random(11)
    lines = []
    for t, counts in enumerate(generated.bins):
        entries = sorted(
            (rng.randrange(4), cid, i) for cid, n in counts.items() for i in range(n)
        )
        for sec, cid, i in entries:
            when = datetime.fromtimestamp(_ORIGIN + 60 * t + sec, _ZONES[i % 3])
            query = f"?ref={i}" if i % 2 else ""
            status, size = [("200", "10"), ("304", "-"), ("404", "7")][(cid + i) % 3]
            lines.append(
                _line(when.strftime("%d/%b/%Y:%H:%M:%S %z"), f"/c/{cid}.html{query}", status, size)
            )
    good = list(lines)
    bad = [
        _line("05/Xyz/2017:10:00:00 +0000", "/bad-month"),
        _line("31/Feb/2017:10:00:00 +0000", "/bad-day"),
        _line("14/Jul/2017:10:00:00 +0000", "/bad-status", status="999"),
        _line("14/Jul/2017:10:00:00 +0000", "/bad-size", size="12kb"),
        _line("14/Jul/2017:10:00:00 +0000", "/short", request="GET"),
        "",
        "   ",
        "not a log line at all",
    ] * 2
    for line in bad:
        lines.insert(rng.randrange(len(lines) + 1), line)

    interner = ContentInterner()
    records, skipped = parse_clf_lines(lines, interner)
    binned = bin_records(records, 60, interner)

    assert skipped == len(bad)
    first_seen = list(dict.fromkeys(line.split()[6].split("?")[0] for line in good))
    assert interner.paths() == {path: cid for cid, path in enumerate(first_seen)}
    to_content = {cid: int(path[len("/c/"):-len(".html")]) for path, cid in interner.paths().items()}
    assert binned.bin_width == 60 and binned.horizon == generated.horizon
    assert {to_content[cid] for cid in binned.catalog} == generated.catalog
    assert [{to_content[cid]: n for cid, n in b.items()} for b in binned.bins] == generated.bins


def test_parse_clf_lines_logs_one_debug_record_per_call(caplog):
    lines = [SAMPLE, SAMPLE, "", SAMPLE.replace("21:31:12", "21:31:13")]
    with caplog.at_level(logging.DEBUG, logger="flashcrowd.trace"):
        parse_clf_lines(lines, ContentInterner())
    assert [r.getMessage() for r in caplog.records] == [
        "parsed 4 log lines: 1 skipped, 2 distinct timestamps"
    ]


def test_parse_clf_lines_of_nothing_logs_zeros(caplog):
    with caplog.at_level(logging.DEBUG, logger="flashcrowd.trace"):
        assert parse_clf_lines(iter(()), ContentInterner()) == ({}, 0)
    assert [r.getMessage() for r in caplog.records] == [
        "parsed 0 log lines: 0 skipped, 0 distinct timestamps"
    ]


def _ordered(counts, skipped, paths):
    """A parse's outputs as lists, so that comparing them compares order too."""
    return [(t, list(at.items())) for t, at in counts.items()], skipped, list(paths.items())


def _matches_oracle(lines):
    """Parse ``lines`` with the ingest and with ``util_clf``'s reference
    parser, assert the outputs agree with their order, and return them."""
    got_interner, want_interner = ContentInterner(), ContentInterner()
    got = _ordered(*parse_clf_lines(lines, got_interner), got_interner.paths())
    want = _ordered(*util_clf.parse_clf_lines(lines, want_interner), want_interner.paths())
    assert got == want, lines
    return got


_STAMP = "14/Jul/2017:10:00:00 +0000"


@pytest.mark.parametrize(
    "line,kept_as",
    [
        (_line(_STAMP, "", request="GET "), None),
        (_line(_STAMP, "", request="GET\t"), None),
        (_line(_STAMP, "", request=" GET /a "), "/a"),
        (_line(_STAMP, "", request="GET ?q=1 HTTP/1.1"), ""),
        (_line(_STAMP, "/a") + "\n", "/a"),
        (_line(_STAMP, "/a").replace("10.0.0.1", 'x"y'), "/a"),
        # \d and int read Arabic-Indic digits; isdigit is true for '²'.
        (_line(_STAMP, "/a", status="٢٠٠"), "/a"),
        (_line(_STAMP, "/a", size="²"), "/a"),
        (_line(_STAMP, "/a", request="GET /a\xa0HTTP/1.1"), "/a"),
        (_line(_STAMP, "/a", request="GET /a\x0bHTTP/1.1"), "/a"),
        (_line(_STAMP, "/a", request="GET\n/a"), "/a"),
    ],
    ids=["one-token-space", "one-token-tab", "padded-request", "query-only-path",
         "trailing-newline", "quote-in-client", "arabic-indic-status", "superscript-size",
         "nbsp-separator", "vtab-separator", "newline-separator"],
)
def test_parse_clf_edge_line_matches_reference(line, kept_as):
    _, skipped, paths = _matches_oracle([line])
    assert (skipped, paths) == ((1, []) if kept_as is None else (0, [(kept_as, 0)]))


# Mutation alphabet: every kind of whitespace the request split and the
# match must agree on, the field delimiters, and non-ASCII digits.
_ALPHABET = "\t\x0b\n\xa0 []\"?٥²-/:0a"


def _mutations(n, seed):
    """``n`` seeded lines: valid lines, and lines with one malformed field,
    each with one or two characters inserted, deleted or replaced from
    ``_ALPHABET``."""
    rng = random.Random(seed)
    bad = [
        {"stamp": "31/Feb/2017:10:00:00 +0000"},
        {"status": "999"},
        {"size": "12kb"},
        {"request": "GET"},
    ]
    lines = []
    for _ in range(n):
        path = rng.choice(["/c/1", "/c/2?q=1", "/c/3", "/"])
        fields = {
            "stamp": rng.choice([_STAMP, "14/Jul/2017:12:00:01 +0200"]),
            "status": rng.choice(["200", "404"]),
            "size": rng.choice(["10", "-"]),
            "request": rng.choice([f"GET {path} HTTP/1.1", f" GET {path} ", f"GET {path}"]),
        }
        if rng.random() < 0.25:
            fields.update(rng.choice(bad))
        chars = list(_line(fields.pop("stamp"), path, **fields))
        for _ in range(rng.randint(1, 2)):
            at = rng.randrange(len(chars) + 1)
            op = rng.randrange(3)
            if op == 0:
                chars.insert(at, rng.choice(_ALPHABET))
            elif at < len(chars):
                if op == 1:
                    del chars[at]
                else:
                    chars[at] = rng.choice(_ALPHABET)
        lines.append("".join(chars))
    return lines


def test_parse_clf_mutations_match_reference():
    lines = _mutations(20_000, seed=25)
    skipped = sum(_matches_oracle([line])[1] for line in lines)
    assert _matches_oracle(lines)[1] == skipped
    # Both outcomes are common: about a fifth of the lines are kept.
    assert 2_000 < len(lines) - skipped < 18_000


def test_parse_clf_lines_from_a_file_handle(tmp_path):
    # Lines read from a file end in "\n"; they count as the same lines without it.
    lines = [
        _line(_STAMP, "/a?x=1"),
        _line("31/Feb/2017:10:00:00 +0000", "/bad-day"),
        "",
        _line("14/Jul/2017:12:00:00 +0200", "/b", size="-"),
        "   ",
        _line(_STAMP, "/short", request="GET"),
        _line(_STAMP, "/a", status="404"),
        "not a log line at all",
    ]
    p = tmp_path / "access.log"
    p.write_text("".join(line + "\n" for line in lines))
    interner = ContentInterner()
    with open(p) as fh:
        from_file = parse_clf_lines(fh, interner)
    expected = _matches_oracle(lines)
    assert _ordered(*from_file, interner.paths()) == expected
    assert expected == ([(1500026400.0, [(0, 2), (1, 1)])], 5, [("/a", 0), ("/b", 1)])


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: BinnedTrace(0.0), ValueError, "bin_width must be positive"),
        (lambda: BinnedTrace(1.0, [{3: -1}]), NegativeCount, "negative count for content 3"),
        (lambda: bin_records({}, 0.0, ContentInterner()), ValueError, "bin_width must be positive"),
    ],
    ids=["trace-bin-width", "trace-negative-count", "bin-records-bin-width"],
)
def test_binned_trace_load_check_message(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_bin_records_empty():
    trace = bin_records({}, 60, ContentInterner())
    assert trace.horizon == 0 and trace.catalog == set()


def test_bin_records_single_bin():
    trace = bin_records({0: {7: 1}, 1: {7: 1}, 59: {7: 1}}, 60, ContentInterner())
    assert trace.horizon == 1
    assert trace.bins[0] == {7: 3}


def test_bin_records_materializes_empty_bins():
    trace = bin_records({0: {1: 1}, 250: {2: 1}}, 60, ContentInterner())
    assert trace.horizon == 5
    assert trace.bins[1] == {} and trace.bins[2] == {} and trace.bins[3] == {}
    assert trace.bins[4] == {2: 1}


def test_bin_records_alignment_to_bin_width_boundaries():
    # First access at 119 s with 60 s bins: origin is the 60 s boundary below.
    trace = bin_records({119: {0: 1}, 121: {0: 1}}, 60, ContentInterner())
    assert trace.horizon == 2
    assert trace.bins[0] == {0: 1} and trace.bins[1] == {0: 1}


def test_bin_records_unsorted_and_negative_times():
    # Bin 0 is the bin of the earliest second wherever it sits in the input.
    counts = {250: {2: 1}, -61: {1: 1}, -60: {1: 1}}
    trace = bin_records(counts, 60, ContentInterner())
    assert trace.horizon == 7
    assert trace.bins[0] == {1: 1} and trace.bins[1] == {1: 1} and trace.bins[6] == {2: 1}
    assert counts == {250: {2: 1}, -61: {1: 1}, -60: {1: 1}}


def test_bin_records_count_conservation():
    lines = [SAMPLE] * 5 + ["junk"] + [SAMPLE.replace("hm_bg", f"f{i}") for i in range(7)]
    interner = ContentInterner()
    counts, skipped = parse_clf_lines(lines, interner)
    trace = bin_records(counts, 1, interner)
    assert trace.total_count() == len(lines) - skipped == 12
    assert trace.bins == [{0: 5, **{i: 1 for i in range(1, 8)}}]


def test_csv_roundtrip_basic(tmp_path):
    trace = BinnedTrace(1.0, [{1: 5}], set())
    p = tmp_path / "t.csv"
    write_csv_trace(trace, str(p))
    assert read_csv_trace(str(p)) == trace
    assert p.read_text().splitlines()[0] == "t,content_id,count"


def test_csv_read_simple(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("t,content_id,count\n0,1,5\n")
    trace = read_csv_trace(str(p))
    assert trace.horizon == 1 and trace.bins[0] == {1: 5}


def test_csv_errors(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("time,content,count\n")
    with pytest.raises(BadHeader):
        read_csv_trace(str(p))
    p.write_text("t,content_id,count\n0,1,-2\n")
    with pytest.raises(NegativeCount):
        read_csv_trace(str(p))
    p.write_text("t,content_id,count\n0,1,x\n")
    with pytest.raises(NonIntegerField):
        read_csv_trace(str(p))


@pytest.mark.parametrize(
    "text,error,message",
    [
        ("", BadHeader, "empty file"),
        ("t,content_id,count\n0,1\n", NonIntegerField, "line 2: expected 3 fields, got 2"),
        ("t,content_id,count\n-1,0,1\n", NegativeIndex,
         "line 2: negative index in ['-1', '0', '1']"),
    ],
    ids=["empty-file", "two-fields", "negative-index"],
)
def test_csv_load_check_message(tmp_path, text, error, message):
    p = tmp_path / "t.csv"
    p.write_text(text)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        read_csv_trace(str(p))


def test_csv_header_only_reads_as_an_empty_trace(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("t,content_id,count\n")
    trace = read_csv_trace(str(p), bin_width=60.0)
    assert trace == BinnedTrace(bin_width=60.0)
    assert trace.horizon == 0 and trace.catalog == set()


def test_csv_roundtrip_preserves_trailing_empty_bins_and_catalog(tmp_path):
    trace = BinnedTrace(1.0, [{3: 2}, {}, {}], {3, 9})
    p = tmp_path / "t.csv"
    write_csv_trace(trace, str(p))
    back = read_csv_trace(str(p))
    assert back == trace
    assert back.horizon == 3 and back.catalog == {3, 9}


@st.composite
def traces(draw):
    ncontents = draw(st.integers(1, 5))
    nbins = draw(st.integers(1, 6))
    cids = draw(
        st.lists(st.integers(0, 30), min_size=ncontents, max_size=ncontents, unique=True)
    )
    bins = []
    for _ in range(nbins):
        b = {}
        for cid in cids:
            c = draw(st.integers(0, 4))
            if c:
                b[cid] = c
        bins.append(b)
    return BinnedTrace(1.0, bins, set(cids))


@settings(max_examples=60, deadline=None)
@given(traces())
def test_csv_roundtrip_property(tmp_path_factory, trace):
    p = tmp_path_factory.mktemp("rt") / "t.csv"
    write_csv_trace(trace, str(p))
    assert read_csv_trace(str(p)) == trace
