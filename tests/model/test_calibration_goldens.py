"""``catalog_from_trace`` from every source reproduces the goldens that
the per-request calibrator pinned (``gen_calibration_goldens.py``):
the name and every array, bit for bit."""

from __future__ import annotations

import json

import pytest

from repro.model.catalog import catalog_from_trace
from repro.trace.columnar import open_columnar

from tests.model.gen_calibration_goldens import (CASES, GOLDENS, SOURCES,
                                                 case_key, case_trace,
                                                 digest, write_sources)

PINNED = json.loads(GOLDENS.read_text())


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """Each case's trace and its ``.rcol`` and csv files, built once:
    the tests run case by case, so only the latest case is kept."""
    directory = tmp_path_factory.mktemp("calibration")
    built = {}

    def source(case):
        if case not in built:
            built.clear()
            trace = case_trace(*case)
            built[case] = (trace, *write_sources(trace, directory,
                                                 case_key(*case)))
        return built[case]
    return source


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("case", CASES, ids=[case_key(*c) for c in CASES])
def test_calibration_matches_golden(sources, case, source):
    trace, rcol, csv = sources(case)
    if source == "rcol":
        with open_columnar(rcol) as columnar:
            catalog = catalog_from_trace(columnar)
    else:
        catalog = catalog_from_trace({
            "trace": trace, "iterator": iter(trace.requests),
            "rcol-path": rcol, "csv-path": csv}[source])
    assert digest(catalog) == PINNED[case_key(*case)][source]
