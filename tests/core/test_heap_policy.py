"""The heap policy's hooks are the addressable heap's operations.

:class:`~repro.core.heap_policy.HeapPolicy` *is* an
:class:`~repro.structures.addressable_heap.AddressableHeap`: its
``on_admit`` / ``on_hit`` are the structure's ``push`` / ``update_key``
written out, and :class:`~repro.core.heap_policy.GreedyDualPolicy`'s
``pop_victim`` is the structure's lazy ``pop`` written out.  Random
admit / hit / remove / pop sequences go through a test-local policy
whose ``_key`` returns supplied keys and through a plain heap given the
same keys: both must pop the same entries with the same keys, keep the
same tuple list, raise the same errors, and pass ``check_invariants()``
after every step.  ``_key`` must run exactly once per admission and
once per hit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heap_policy import GreedyDualPolicy, HeapPolicy
from repro.core.policy import CacheEntry
from repro.structures.addressable_heap import AddressableHeap
from repro.types import DocumentType

N_ITEMS = 8

items = st.integers(0, N_ITEMS - 1)
keys = st.integers(0, 4)   # few keys: many ties

#: A hit is a burst of re-keys of one entry, so stale tuples pile up
#: past the ``2·live + _SLACK`` rebuild bound between pops.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), items, keys),
        st.tuples(st.just("hit"), items, keys, st.integers(1, 100)),
        st.tuples(st.just("remove"), items),
        st.tuples(st.just("pop"))),
    max_size=120)


class _Supplied:
    """``_key`` returns the key the test supplies, and counts calls."""

    name = "supplied"
    supplied = None

    def __init__(self):
        super().__init__()
        self.key_calls = 0

    def _key(self, entry):
        self.key_calls += 1
        return self.supplied


class SuppliedHeapPolicy(_Supplied, HeapPolicy):
    pass


class SuppliedGreedyDual(_Supplied, GreedyDualPolicy):
    pass


def _structure_step(heap, op, entry, key):
    """One operation on the plain heap: what it returned, or the type
    of the error it raised."""
    try:
        if op == "admit":
            heap.push(entry, key)
        elif op == "hit":
            heap.update_key(entry, key)
        elif op == "remove":
            heap.remove(entry)
        else:
            return heap.pop()
    except (KeyError, IndexError) as exc:
        return type(exc)
    return None


def _policy_step(policy, op, entry, key):
    """The same operation through the policy's hooks."""
    policy.supplied = key
    try:
        if op == "admit":
            policy.on_admit(entry)
        elif op == "hit":
            policy.on_hit(entry)
        elif op == "remove":
            policy.remove(entry)
        else:
            return policy.pop_victim()
    except (KeyError, IndexError) as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("policy_class",
                         [SuppliedHeapPolicy, SuppliedGreedyDual])
@settings(max_examples=100, deadline=None)
@given(ops=operations)
def test_hooks_match_the_structure(policy_class, ops):
    policy = policy_class()
    heap = AddressableHeap()
    entries = [CacheEntry(f"u{i}", 1, DocumentType.OTHER)
               for i in range(N_ITEMS)]
    key_calls = 0
    steps = [step[:3] for step in ops for _ in range(
        step[3] if step[0] == "hit" else 1)]
    for step in steps:
        op, index, key = step + (None,) * (3 - len(step))
        entry = entries[index] if index is not None else None
        expected = _structure_step(heap, op, entry, key)
        observed = _policy_step(policy, op, entry, key)
        if op == "pop" and expected is not IndexError:
            victim, victim_key = expected
            assert observed is victim
            if isinstance(policy, GreedyDualPolicy):
                assert policy.inflation == victim_key
        else:
            assert observed == expected
        if op in ("admit", "hit") and expected is None:
            key_calls += 1
        assert policy.key_calls == key_calls
        assert len(policy) == len(heap)
        assert len(policy._heap) == len(heap._heap)
        assert policy._heap == heap._heap
        assert policy._live == heap._live
        policy.check_invariants()
        heap.check_invariants()
