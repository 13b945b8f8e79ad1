"""The column tally against the per-request reference.

:class:`~repro.simulation.vectorized.Tally` is the one place every
cell of a shared pass and both network engines count a hit column into
per-type totals; :meth:`TypeMetrics.record`, request by request, is
what it must equal — for any columns, any warm-up, and sums past the
int64 guard.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.simulation.metrics import TypeMetrics
from repro.simulation.vectorized import _SUM_GUARD, Tally
from repro.types import DOCUMENT_TYPES

#: (hit, measured transfer, type code); every few transfers large
#: enough that a handful of them crosses ``_SUM_GUARD``.
ROWS = st.lists(
    st.tuples(st.booleans(),
              st.one_of(st.integers(0, 10**6),
                        st.integers(_SUM_GUARD >> 2, _SUM_GUARD)),
              st.integers(0, len(DOCUMENT_TYPES) - 1)),
    max_size=60)


@given(ROWS, st.data())
def test_totals_equal_a_record_loop(rows, data):
    warmup = data.draw(st.integers(0, len(rows) + 1))
    hits = np.array([hit for hit, _, _ in rows], dtype=bool)
    tally = Tally(np.array([t for _, t, _ in rows], dtype=np.int64),
                  np.array([c for _, _, c in rows], dtype=np.uint8))
    counted = TypeMetrics()
    counted.add(tally.totals(warmup), tally.totals(warmup, hits))
    reference = TypeMetrics()
    for hit, transfer, code in rows[warmup:]:
        reference.record(DOCUMENT_TYPES[code], hit, transfer)
    assert counted.as_dict() == reference.as_dict()


def test_requested_side_is_computed_once_per_boundary():
    tally = Tally(np.array([5, 7, 9], dtype=np.int64),
                  np.array([0, 1, 0], dtype=np.uint8))
    assert tally.totals(1) is tally.totals(1)
    assert tally.totals(1) is not tally.totals(2)
