"""End-to-end trace preprocessing pipeline.

Composes the cacheability filter, document-type classification, and
document/transfer-size reconstruction into a single streaming
transformation from raw :class:`~repro.trace.record.LogRecord` objects to
simulation-ready :class:`~repro.types.Request` objects — the paper's
Section 2 preprocessing in one call.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

from repro.errors import TraceFormatError
from repro.observability.logs import get_logger
from repro.observability.profiling import phase_timer
from repro.trace.classify import classify
from repro.trace.modification import ModificationDetector, ModificationPolicy
from repro.trace.preprocess import CacheabilityFilter
from repro.trace.reader import open_trace
from repro.trace.record import LogRecord
from repro.types import Request, Trace

PathLike = Union[str, Path]

_logger = get_logger("trace.pipeline")


class TracePipeline:
    """Raw log records → preprocessed cacheable request stream.

    The pipeline:

    1. drops uncacheable records (:class:`CacheabilityFilter`);
    2. classifies each record into a document type (MIME header first,
       URL extension fallback);
    3. reconstructs full document sizes from logged transfer sizes with
       the :class:`ModificationDetector`, so every emitted request
       carries both ``size`` (canonical full size) and ``transfer_size``
       (logged bytes).

    Note the pipeline's detector only *reconstructs sizes*; the simulator
    runs its own detector over the emitted requests to decide
    modification misses, exactly as the paper's simulator processes the
    trace directly.
    """

    def __init__(self,
                 cacheability: Optional[CacheabilityFilter] = None,
                 modification_tolerance: float = 0.05,
                 modification_policy: ModificationPolicy = ModificationPolicy.PAPER):
        self.cacheability = cacheability or CacheabilityFilter()
        self.detector = ModificationDetector(
            tolerance=modification_tolerance, policy=modification_policy)

    def process(self, records: Iterable[LogRecord]) -> Iterator[Request]:
        """Stream preprocessed requests from raw records."""
        for record in records:
            if not self.cacheability.accepts(record):
                continue
            doc_type = classify(record.url, record.content_type)
            observation = self.detector.observe(record.url, record.size)
            yield Request(
                timestamp=record.timestamp,
                url=record.url,
                size=observation.document_size,
                transfer_size=min(record.size, observation.document_size),
                doc_type=doc_type,
                status=record.status,
                content_type=record.content_type,
            )


def iter_trace(path: PathLike, fmt: Optional[str] = None,
               pipeline: Optional[TracePipeline] = None,
               max_errors: Optional[int] = None,
               on_error: Optional[Callable[[TraceFormatError], None]]
               = None) -> Iterator[Request]:
    """Stream preprocessed requests from a trace file, bounded memory.

    The lazy sibling of :func:`load_trace`: decodes (and, for raw-log
    formats, preprocesses) one record at a time without materializing
    the trace, so a multi-million-request log can drive a simulation
    pass directly.  Each call opens the file afresh and, for raw
    formats, runs a fresh :class:`TracePipeline`, so repeated passes
    see identical request streams.
    """
    stream = open_trace(path, fmt=fmt, max_errors=max_errors,
                        on_error=on_error)
    first = next(stream, None)
    if first is None:
        return
    if isinstance(first, Request):
        yield first
        yield from stream
        return
    pipeline = pipeline or TracePipeline()

    def _records():
        yield first
        yield from stream
    yield from pipeline.process(_records())


def load_trace(path: PathLike, fmt: Optional[str] = None,
               name: Optional[str] = None,
               pipeline: Optional[TracePipeline] = None,
               max_errors: Optional[int] = None,
               on_error: Optional[Callable[[TraceFormatError], None]]
               = None) -> Trace:
    """Load a trace file into memory, preprocessing raw logs on the way.

    Canonical csv traces are loaded verbatim (they are already
    preprocessed); squid and clf logs run through a
    :class:`TracePipeline` first.  ``max_errors`` / ``on_error`` bound
    and surface malformed-line skips (see
    :func:`~repro.trace.reader.open_trace`).
    """
    path = Path(path)
    with phase_timer("trace_load", metric="trace_load_seconds"):
        trace = Trace(iter_trace(path, fmt=fmt, pipeline=pipeline,
                                 max_errors=max_errors,
                                 on_error=on_error),
                      name=name or path.stem)
    _logger.debug("loaded trace %s: %d requests", trace.name,
                  len(trace.requests),
                  extra={"trace": trace.name, "path": str(path),
                         "requests": len(trace.requests)})
    return trace
