"""Report goldens: one sha256 per experiment id at ``--scale tiny``.

``data/report_digests.json`` pins, for each of the 20 experiment ids
under default settings, the sha256 of the report's ``text``, ``data``
and ``artifacts``.  The reports are deterministic (seeded generators,
no wall-clock fields, stable across ``PYTHONHASHSEED``), so a refactor
of how traces are looked up or cells are scheduled must leave every
digest byte-identical.

Regenerate with ``python tests/experiments/test_report_digests.py`` —
only ever from a commit whose reports are known good (the entries in
the repo were computed before ``runner._TraceCache`` and
``future-workload`` moved onto ``profile_by_name``).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.config import EXPERIMENT_IDS
from repro.experiments.runner import run_experiment

pytestmark = pytest.mark.slow

GOLDENS = Path(__file__).parent / "data" / "report_digests.json"


def report_digest(experiment_id: str) -> str:
    report = run_experiment(experiment_id, scale="tiny")
    blob = json.dumps({"text": report.text, "data": report.data,
                       "artifacts": report.artifacts}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_every_experiment_is_pinned():
    assert sorted(json.loads(GOLDENS.read_text())) == \
        sorted(EXPERIMENT_IDS)


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_report_is_byte_identical(experiment_id):
    golden = json.loads(GOLDENS.read_text())
    assert report_digest(experiment_id) == golden[experiment_id]


if __name__ == "__main__":
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(
        {eid: report_digest(eid) for eid in EXPERIMENT_IDS},
        indent=2) + "\n")
    print(f"wrote {GOLDENS}")
