import dataclasses
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashcrowd.trace import (
    AccessLogRecord,
    BadHeader,
    BinnedTrace,
    ContentInterner,
    MalformedLine,
    NegativeCount,
    NonIntegerField,
    bin_records,
    parse_clf_line,
    parse_clf_lines,
    read_csv_trace,
    write_csv_trace,
)

SAMPLE = '282 - - [30/Apr/1998:21:31:12 +0000] "GET /images/hm_bg.jpg HTTP/1.0" 200 24736'


def test_parse_clf_sample_entry():
    rec = parse_clf_line(SAMPLE)
    assert rec.client_id == "282"
    assert rec.method == "GET"
    assert rec.object_path == "/images/hm_bg.jpg"
    assert rec.status == 200
    assert rec.size == 24736
    # 1998-04-30T21:31:12 UTC
    assert rec.timestamp == 893971872.0


def test_parse_clf_timezone_applied():
    utc = parse_clf_line(SAMPLE)
    shifted = parse_clf_line(SAMPLE.replace("+0000", "+0200"))
    assert shifted.timestamp == utc.timestamp - 2 * 3600


def test_parse_clf_rejects_empty_and_garbage():
    with pytest.raises(MalformedLine):
        parse_clf_line("")
    with pytest.raises(MalformedLine):
        parse_clf_line("not a log line at all")
    with pytest.raises(MalformedLine):
        parse_clf_line(SAMPLE.replace("200", "999"))
    with pytest.raises(MalformedLine):
        parse_clf_line(SAMPLE.replace("[30/Apr/1998:21:31:12 +0000]", "[bogus]"))


def test_parse_clf_keeps_error_statuses():
    rec = parse_clf_line(SAMPLE.replace(" 200 ", " 404 "))
    assert rec.status == 404


def test_parse_clf_dash_size():
    rec = parse_clf_line(SAMPLE.replace("24736", "-"))
    assert rec.size == 0


def test_interner_first_seen_order_and_query_strip():
    it = ContentInterner()
    assert it.intern("/a?x=1") == 0
    assert it.intern("/b") == 1
    assert it.intern("/a?y=2") == 0
    assert it.intern("/a") == 0
    assert len(it) == 2


def test_parse_clf_lines_skip_and_count():
    lines = [SAMPLE, "", "garbage", SAMPLE.replace("hm_bg", "other")]
    records, skipped = parse_clf_lines(lines)
    assert skipped == 2
    assert [r.content_id for r in records] == [0, 1]


def test_parse_clf_lines_status_filter():
    lines = [SAMPLE, SAMPLE.replace(" 200 ", " 404 ")]
    records, skipped = parse_clf_lines(lines, statuses={200})
    assert skipped == 0
    assert len(records) == 1 and records[0].status == 200


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
    interner = ContentInterner()
    records, skipped = parse_clf_lines(lines, interner)

    expected, expected_skipped = [], 0
    per_line = ContentInterner()
    for line in lines:
        try:
            expected.append(parse_clf_line(line, per_line))
        except MalformedLine:
            expected_skipped += 1
    assert records == expected
    assert skipped == expected_skipped == 9
    assert interner.paths() == per_line.paths() == {"/a": 0, "/b": 1, "/c": 2, "/d": 3}
    assert len({r.timestamp for r in records}) == 2

    for bad in (bad_month, bad_day):
        fresh = ContentInterner()
        with pytest.raises(MalformedLine):
            parse_clf_line(bad, fresh)
        assert len(fresh) == 0


def test_parse_clf_lines_logs_one_debug_record_per_call(caplog):
    lines = [SAMPLE, SAMPLE, "", SAMPLE.replace("21:31:12", "21:31:13")]
    with caplog.at_level(logging.DEBUG, logger="flashcrowd.trace"):
        parse_clf_lines(lines)
    assert [r.getMessage() for r in caplog.records] == [
        "parsed 4 log lines: 1 skipped, 2 distinct timestamps"
    ]


def _rec(ts, path="/x", cid=None):
    return AccessLogRecord("c", ts, "GET", path, 200, 1, content_id=cid)


def test_access_record_is_frozen_slotted_and_hashable():
    rec = parse_clf_line(SAMPLE, ContentInterner())
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.status = 404
    twin = AccessLogRecord("282", 893971872.0, "GET", "/images/hm_bg.jpg", 200, 24736, 0)
    assert twin == rec and hash(twin) == hash(rec)
    assert twin != dataclasses.replace(rec, size=1)
    with pytest.raises(TypeError):
        vars(rec)


def test_bin_records_empty():
    trace = bin_records([], 60)
    assert trace.horizon == 0 and trace.catalog == set()


def test_bin_records_single_bin():
    trace = bin_records([_rec(0, cid=7), _rec(1, cid=7), _rec(59, cid=7)], 60)
    assert trace.horizon == 1
    assert trace.bins[0] == {7: 3}


def test_bin_records_materializes_empty_bins():
    trace = bin_records([_rec(0, cid=1), _rec(250, cid=2)], 60)
    assert trace.horizon == 5
    assert trace.bins[1] == {} and trace.bins[2] == {} and trace.bins[3] == {}
    assert trace.bins[4] == {2: 1}


def test_bin_records_alignment_to_bin_width_boundaries():
    # First record at 119 s with 60 s bins: origin is the 60 s boundary below.
    trace = bin_records([_rec(119, cid=0), _rec(121, cid=0)], 60)
    assert trace.horizon == 2
    assert trace.bins[0] == {0: 1} and trace.bins[1] == {0: 1}


def test_bin_records_unsorted_and_negative_times():
    # Bin 0 is the bin of the earliest record wherever it sits in the input.
    trace = bin_records([_rec(250, cid=2), _rec(-61, cid=1), _rec(-60, cid=1)], 60)
    assert trace.horizon == 7
    assert trace.bins[0] == {1: 1} and trace.bins[1] == {1: 1} and trace.bins[6] == {2: 1}


def test_bin_records_count_conservation():
    lines = [SAMPLE] * 5 + ["junk"] + [SAMPLE.replace("hm_bg", f"f{i}") for i in range(7)]
    records, skipped = parse_clf_lines(lines)
    trace = bin_records(records, 1)
    assert trace.total_count() == len(records) == len(lines) - skipped


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
