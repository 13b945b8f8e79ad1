"""Trace ingestion substrate.

Raw proxy logs (Squid native access.log, Common Log Format, or the
library's canonical CSV trace format) are parsed into
:class:`~repro.trace.record.LogRecord` objects, filtered for
cacheability, classified by document type, and emitted as
:class:`~repro.types.Request` streams ready for simulation.

The composable entry point is :class:`~repro.trace.pipeline.TracePipeline`;
:func:`~repro.trace.pipeline.load_trace` is the one-call convenience.
"""

from repro.trace.record import LogRecord
from repro.trace.classify import (
    classify,
    classify_content_type,
    classify_extension,
    classify_url,
)
from repro.trace.preprocess import (
    CACHEABLE_STATUS_CODES,
    CacheabilityFilter,
    is_cacheable_status,
    is_uncacheable_url,
)
from repro.trace.modification import ModificationDetector, ModificationPolicy
from repro.trace.squid import SquidParser, format_squid_line
from repro.trace.clf import CLFParser, format_clf_line
from repro.trace.csvtrace import CsvTraceParser, CsvTraceWriter
from repro.trace.reader import open_trace, detect_format
from repro.trace.writer import write_trace
from repro.trace.columnar import (
    COLUMNAR_SUFFIX,
    ColumnarFormatError,
    ColumnarHeader,
    ColumnarTrace,
    ColumnarWriter,
    TraceColumns,
    columns_of,
    convert_to_columnar,
    inspect_columnar,
    is_columnar_file,
    open_columnar,
    read_header,
    write_columnar,
)
from repro.trace.pipeline import (
    TracePipeline,
    iter_trace,
    load_trace,
)
from repro.trace.validation import Finding, Severity, validate_trace
from repro.trace.sampling import (
    anonymize,
    filter_by_type,
    filter_requests,
    head,
    interleave,
    sample,
    split,
    thin,
    time_slice,
)

__all__ = [
    "LogRecord",
    "classify",
    "classify_content_type",
    "classify_extension",
    "classify_url",
    "CACHEABLE_STATUS_CODES",
    "CacheabilityFilter",
    "is_cacheable_status",
    "is_uncacheable_url",
    "ModificationDetector",
    "ModificationPolicy",
    "SquidParser",
    "format_squid_line",
    "CLFParser",
    "format_clf_line",
    "CsvTraceParser",
    "CsvTraceWriter",
    "open_trace",
    "detect_format",
    "write_trace",
    "COLUMNAR_SUFFIX",
    "ColumnarFormatError",
    "ColumnarHeader",
    "ColumnarTrace",
    "ColumnarWriter",
    "TraceColumns",
    "columns_of",
    "convert_to_columnar",
    "inspect_columnar",
    "is_columnar_file",
    "open_columnar",
    "read_header",
    "write_columnar",
    "TracePipeline",
    "iter_trace",
    "load_trace",
    "validate_trace",
    "Finding",
    "Severity",
    "anonymize",
    "filter_by_type",
    "filter_requests",
    "head",
    "thin",
    "sample",
    "time_slice",
    "split",
    "interleave",
]
