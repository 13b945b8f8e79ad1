"""Regenerate the pinned trace-calibration goldens.

Run from the repo root::

    PYTHONPATH=src python tests/model/gen_calibration_goldens.py

``data/calibration_goldens.json`` pins :func:`repro.model.catalog.
catalog_from_trace` on DFN and RTP at scales 1/256 and 1/64, under
both temporal models, from every kind of source: the in-memory
``Trace``, a request iterator, an ``.rcol`` object, an ``.rcol`` path
and a csv path.  For each it records the catalog's name and, per array
(``probabilities``, ``sizes``, ``type_codes``, ``counts``,
``mean_transfers``), the dtype, length and sha256 of its bytes.

The file was produced by the per-request calibrator, which took no
path: a path source was calibrated from what opening it gives — the
mmap'd ``ColumnarTrace`` for an ``.rcol``, ``load_trace`` (named by
the file stem) for a csv.  ``tests/model/test_calibration_goldens.py``
holds today's calibrator to it.  A diff is only legitimate when the
workload generator changes, never to paper over a calibration one.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from repro.model.catalog import catalog_from_trace
from repro.trace.columnar import open_columnar, write_columnar
from repro.trace.pipeline import load_trace
from repro.trace.writer import write_trace
from repro.workload.generator import generate_trace
from repro.workload.profiles import dfn_like, rtp_like

GOLDENS = Path(__file__).parent / "data" / "calibration_goldens.json"

PROFILES = {"dfn": dfn_like, "rtp": rtp_like}
SCALES = (256, 64)
TEMPORAL_MODELS = ("gaps", "irm")
SOURCES = ("trace", "iterator", "rcol", "rcol-path", "csv-path")
ARRAYS = ("probabilities", "sizes", "type_codes", "counts",
          "mean_transfers")

#: Every (profile, 1/scale, temporal model) the goldens cover.
CASES = [(profile, scale, temporal) for profile in PROFILES
         for scale in SCALES for temporal in TEMPORAL_MODELS]


def case_key(profile: str, scale: int, temporal: str) -> str:
    return f"{profile}-{scale}-{temporal}"


def case_trace(profile: str, scale: int, temporal: str):
    return generate_trace(PROFILES[profile](scale=1.0 / scale),
                          temporal_model=temporal)


def write_sources(trace, directory: Path, key: str):
    """Write ``trace`` as ``<key>.rcol`` (carrying the trace's name)
    and ``<key>.csv``; returns the two paths."""
    rcol = directory / f"{key}.rcol"
    csv = directory / f"{key}.csv"
    write_columnar(rcol, trace.requests, name=trace.name)
    write_trace(csv, trace.requests)
    return rcol, csv


def digest(catalog) -> dict:
    """The catalog's name and a dtype / length / sha256 per array."""
    entry = {"name": catalog.name}
    for array in ARRAYS:
        values = np.ascontiguousarray(getattr(catalog, array))
        entry[array] = {"dtype": values.dtype.str, "length": len(values),
                        "sha256": hashlib.sha256(
                            values.tobytes()).hexdigest()}
    return entry


def _calibrate(trace, source: str, rcol: Path, csv: Path):
    if source == "trace":
        return catalog_from_trace(trace)
    if source == "iterator":
        return catalog_from_trace(iter(trace.requests))
    if source in ("rcol", "rcol-path"):
        with open_columnar(rcol) as columnar:
            return catalog_from_trace(columnar)
    return catalog_from_trace(load_trace(csv))


def goldens() -> dict:
    pinned = {}
    with tempfile.TemporaryDirectory() as scratch:
        for case in CASES:
            key = case_key(*case)
            trace = case_trace(*case)
            rcol, csv = write_sources(trace, Path(scratch), key)
            pinned[key] = {source: digest(_calibrate(trace, source,
                                                     rcol, csv))
                           for source in SOURCES}
    return pinned


if __name__ == "__main__":
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(goldens(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {GOLDENS}")
