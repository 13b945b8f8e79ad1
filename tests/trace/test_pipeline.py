"""Tests for the end-to-end preprocessing pipeline and trace I/O."""

import pytest

from repro.trace.pipeline import TracePipeline, iter_trace, load_trace
from repro.trace.preprocess import CacheabilityFilter
from repro.trace.record import LogRecord
from repro.trace.writer import write_trace
from repro.types import DocumentType, Request, Trace


def record(url, size, status=200, content_type=None, ts=0.0):
    return LogRecord(timestamp=ts, url=url, status=status, size=size,
                     content_type=content_type)


class TestPipeline:
    def test_drops_uncacheable(self):
        pipeline = TracePipeline()
        records = [
            record("http://a/x.gif", 100, content_type="image/gif"),
            record("http://a/cgi-bin/q", 100),
            record("http://a/y.html?id=1", 100),
            record("http://a/z.pdf", 100, status=404),
        ]
        out = list(pipeline.process(records))
        assert len(out) == 1
        assert out[0].doc_type is DocumentType.IMAGE

    def test_classification_prefers_mime(self):
        pipeline = TracePipeline()
        out = list(pipeline.process([
            record("http://a/x.gif", 100, content_type="text/html")]))
        assert out[0].doc_type is DocumentType.HTML

    def test_interrupted_transfer_reconstruction(self):
        """Full fetch then aborted fetch: size stays, transfer shrinks."""
        pipeline = TracePipeline()
        out = list(pipeline.process([
            record("http://a/big.mpg", 1_000_000),
            record("http://a/big.mpg", 200_000),
        ]))
        assert out[0].size == 1_000_000
        assert out[1].size == 1_000_000        # canonical size kept
        assert out[1].transfer_size == 200_000  # logged bytes

    def test_modification_reconstruction(self):
        pipeline = TracePipeline()
        out = list(pipeline.process([
            record("http://a/page.html", 10_000),
            record("http://a/page.html", 10_200),  # +2 %: modified
        ]))
        assert out[1].size == 10_200
        assert out[1].transfer_size == 10_200

    def test_requests_carry_metadata(self):
        pipeline = TracePipeline()
        out = list(pipeline.process([
            record("http://a/x.gif", 100, content_type="image/gif",
                   ts=42.5)]))
        assert out[0].timestamp == 42.5
        assert out[0].status == 200
        assert out[0].content_type == "image/gif"


class TestLoadTrace:
    def test_load_csv_round_trip(self, tmp_path):
        requests = [
            Request(0.0, "http://a/x.gif", 100, 100, DocumentType.IMAGE),
            Request(1.0, "http://a/y.pdf", 900, 900,
                    DocumentType.APPLICATION),
        ]
        path = tmp_path / "trace.csv"
        assert write_trace(path, requests) == 2
        trace = load_trace(path)
        assert isinstance(trace, Trace)
        assert len(trace) == 2
        assert trace[0].doc_type is DocumentType.IMAGE

    def test_load_csv_gzip(self, tmp_path):
        requests = [Request(0.0, "u", 10, 10, DocumentType.OTHER)]
        path = tmp_path / "trace.csv.gz"
        write_trace(path, requests)
        assert len(load_trace(path)) == 1

    def test_load_raw_log_applies_pipeline(self, tmp_path):
        lines = [
            "1.0 10 c TCP_MISS/200 500 GET http://a/x.gif - D/- image/gif",
            "2.0 10 c TCP_MISS/200 500 GET http://a/q?x=1 - D/- text/html",
            "3.0 10 c TCP_MISS/404 500 GET http://a/z.gif - D/- image/gif",
        ]
        path = tmp_path / "access.log"
        path.write_text("\n".join(lines) + "\n")
        trace = load_trace(path)
        assert len(trace) == 1  # query URL and 404 dropped
        assert trace[0].url == "http://a/x.gif"

    def test_zero_byte_record_then_full_size(self, tmp_path):
        """Kept zero-byte records: the next positive size grows the
        reconstruction past the zero belief instead of dividing by it."""
        path = tmp_path / "access.log"
        path.write_text(
            "1.0 10 c TCP_MISS/200 0 GET http://a/x.gif - D/- image/gif\n"
            "2.0 10 c TCP_MISS/200 100 GET http://a/x.gif - D/- image/gif\n")
        pipeline = TracePipeline(
            cacheability=CacheabilityFilter(drop_zero_size=False))
        out = list(iter_trace(path, pipeline=pipeline))
        assert [(r.size, r.transfer_size) for r in out] == \
            [(0, 0), (100, 100)]

    def test_load_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        trace = load_trace(path)
        assert len(trace) == 0

    def test_trace_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "mytrace.csv"
        write_trace(path, [Request(0.0, "u", 10, 10, DocumentType.OTHER)])
        assert load_trace(path).name == "mytrace"
        assert load_trace(path, name="custom").name == "custom"
