"""Unit and property tests for the addressable min-heap."""

import bisect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.addressable_heap import _SLACK, AddressableHeap


def test_empty_heap():
    heap = AddressableHeap()
    assert len(heap) == 0
    assert not heap
    assert "x" not in heap
    with pytest.raises(IndexError):
        heap.pop()
    with pytest.raises(IndexError):
        heap.peek()


def test_push_pop_single():
    heap = AddressableHeap()
    heap.push("a", 3.0)
    assert "a" in heap
    assert heap.peek() == ("a", 3.0)
    assert heap.pop() == ("a", 3.0)
    assert "a" not in heap


def test_pop_returns_minimum_order():
    heap = AddressableHeap()
    keys = [5, 1, 4, 2, 3]
    for i, key in enumerate(keys):
        heap.push(f"item{i}", key)
    popped = [heap.pop()[1] for _ in range(len(keys))]
    assert popped == sorted(keys)


def test_duplicate_push_raises():
    heap = AddressableHeap()
    heap.push("a", 1)
    with pytest.raises(KeyError):
        heap.push("a", 2)


def test_ties_break_fifo():
    heap = AddressableHeap()
    for name in ("first", "second", "third"):
        heap.push(name, 7)
    assert heap.pop()[0] == "first"
    assert heap.pop()[0] == "second"
    assert heap.pop()[0] == "third"


def test_update_key_decrease():
    heap = AddressableHeap()
    heap.push("a", 10)
    heap.push("b", 5)
    heap.update_key("a", 1)
    assert heap.pop()[0] == "a"


def test_update_key_increase():
    heap = AddressableHeap()
    heap.push("a", 1)
    heap.push("b", 5)
    heap.update_key("a", 10)
    assert heap.pop()[0] == "b"


def test_update_key_refreshes_tie_order():
    """Re-keyed items sort after existing items with equal keys."""
    heap = AddressableHeap()
    heap.push("a", 3)
    heap.push("b", 3)
    heap.update_key("a", 3)  # same value, but now "newer"
    assert heap.pop()[0] == "b"
    assert heap.pop()[0] == "a"


def test_key_of_and_remove():
    heap = AddressableHeap()
    heap.push("a", 2)
    heap.push("b", 1)
    assert heap.key_of("a") == 2
    assert heap.remove("a") == 2
    assert "a" not in heap
    assert heap.pop()[0] == "b"


def test_remove_missing_raises():
    heap = AddressableHeap()
    with pytest.raises(KeyError):
        heap.remove("ghost")
    with pytest.raises(KeyError):
        heap.key_of("ghost")


def test_remove_last_element_position():
    heap = AddressableHeap()
    heap.push("a", 1)
    heap.push("b", 2)
    heap.remove("b")
    heap.check_invariants()
    assert heap.pop()[0] == "a"


def test_clear():
    heap = AddressableHeap()
    for i in range(10):
        heap.push(i, i)
    heap.clear()
    assert len(heap) == 0
    heap.push("x", 1)  # usable after clear
    assert heap.pop()[0] == "x"


def test_iteration_covers_all_items():
    heap = AddressableHeap()
    for i in range(20):
        heap.push(i, -i)
    assert sorted(heap) == list(range(20))


def test_large_randomized_sequence_maintains_order():
    rng = random.Random(42)
    heap = AddressableHeap()
    live = {}
    for step in range(3000):
        action = rng.random()
        if action < 0.5 or not live:
            item = f"i{step}"
            key = rng.randint(0, 1000)
            heap.push(item, key)
            live[item] = key
        elif action < 0.75:
            item = rng.choice(list(live))
            key = rng.randint(0, 1000)
            heap.update_key(item, key)
            live[item] = key
        else:
            item, key = heap.pop()
            assert key == min(live.values())
            del live[item]
    heap.check_invariants()
    # Drain: pops must come out sorted.
    drained = [heap.pop()[1] for _ in range(len(heap))]
    assert drained == sorted(drained)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-1000, max_value=1000),
                min_size=1, max_size=80))
def test_property_heapsort(keys):
    """Pushing arbitrary keys and draining yields sorted order."""
    heap = AddressableHeap()
    for index, key in enumerate(keys):
        heap.push(index, key)
    heap.check_invariants()
    drained = [heap.pop()[1] for _ in range(len(keys))]
    assert drained == sorted(keys)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(-50, 50)),
                min_size=1, max_size=120))
def test_property_update_then_drain(ops):
    """Random pushes and re-keys never violate the heap invariant."""
    heap = AddressableHeap()
    live = {}
    for item, key in ops:
        if item in live:
            heap.update_key(item, key)
        else:
            heap.push(item, key)
        live[item] = key
        heap.check_invariants()
    drained = []
    while heap:
        _, key = heap.pop()
        drained.append(key)
    assert drained == sorted(live.values())


# ----- differential test against a sorted-list model -------------------------


class SortedListModel:
    """The specification: a list of ``(key, seq, item)`` kept sorted, one
    counter feeding ``seq`` on every successful push and re-key."""

    def __init__(self):
        self.rows = []
        self.seq = 0

    def _row_of(self, item):
        for row in self.rows:
            if row[2] == item:
                return row
        raise KeyError(item)

    def __contains__(self, item):
        return any(row[2] == item for row in self.rows)

    def push(self, item, key):
        if item in self:
            raise KeyError(item)
        bisect.insort(self.rows, (key, self.seq, item))
        self.seq += 1

    def update_key(self, item, key):
        self.rows.remove(self._row_of(item))
        bisect.insort(self.rows, (key, self.seq, item))
        self.seq += 1

    def remove(self, item):
        row = self._row_of(item)
        self.rows.remove(row)
        return row[0]

    def key_of(self, item):
        return self._row_of(item)[0]

    def peek(self):
        key, _, item = self.rows[0]   # IndexError when empty
        return item, key

    def pop(self):
        key, _, item = self.rows.pop(0)
        return item, key


ITEMS = st.integers(0, 9)

#: Few distinct values, so ties and re-keyed ties are the common case;
#: ints and floats mix (lfu counts against lfu-da ages), -inf is belady's
#: "never used again".
NUMBER_KEYS = st.sampled_from(
    [-math.inf, -2, -0.5, 0, 0.0, 0.5, 1, 1.0, 3, math.inf])
#: lru-2 and belady key on pairs.
TUPLE_KEYS = st.tuples(st.sampled_from([-math.inf, -1, 0, 7]),
                       st.integers(-2, 2))


def operations(keys):
    return st.lists(st.one_of(
        st.tuples(st.just("push"), ITEMS, keys),
        st.tuples(st.just("update_key"), ITEMS, keys),
        st.tuples(st.just("remove"), ITEMS),
        st.tuples(st.just("key_of"), ITEMS),
        st.tuples(st.just("pop")),
        st.tuples(st.just("peek")),
    ), max_size=200)


def outcome(target, name, args):
    try:
        return getattr(target, name)(*args)
    except (KeyError, IndexError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(st.one_of(operations(NUMBER_KEYS), operations(TUPLE_KEYS)))
def test_property_matches_sorted_list_model(ops):
    """Same answers, same errors and the identical pop sequence —
    including ties and re-keyed ties — as the sorted-list model."""
    heap, model = AddressableHeap(), SortedListModel()
    for name, *args in ops:
        assert outcome(heap, name, args) == outcome(model, name, args)
        heap.check_invariants()
        assert len(heap) == len(model.rows)
        assert bool(heap) == bool(model.rows)
        assert sorted(heap) == sorted(row[2] for row in model.rows)
        for item in range(10):
            assert (item in heap) == (item in model)
    drained = [heap.pop() for _ in range(len(heap))]
    assert drained == [(item, key) for key, _, item in model.rows]
    assert not heap


# ----- lazy deletion keeps its garbage bounded --------------------------------


def test_rekeying_without_pops_keeps_the_list_bounded():
    rng = random.Random(7)
    heap = AddressableHeap()
    n = 100
    for item in range(n):
        heap.push(item, rng.random())
    longest = 0
    for step in range(100_000):
        heap.update_key(rng.randrange(n), rng.random() + step)
        longest = max(longest, len(heap._heap))
    assert longest <= 2 * n + _SLACK
    heap.check_invariants()
    drained = [heap.pop()[1] for _ in range(n)]
    assert drained == sorted(drained)


def test_push_remove_pairs_keep_the_list_bounded():
    heap = AddressableHeap()
    n = 50
    for item in range(n):
        heap.push(item, item)
    longest = 0
    for step in range(10_000):
        heap.push(("transient", step), -step)
        assert heap.remove(("transient", step)) == -step
        longest = max(longest, len(heap._heap))
    assert longest <= 2 * n + _SLACK
    heap.check_invariants()
    assert [heap.pop()[0] for _ in range(n)] == list(range(n))


# ----- error contract ---------------------------------------------------------


def snapshot(heap):
    return sorted((heap.key_of(item), item) for item in heap)


@pytest.mark.parametrize("call, error", [
    (lambda heap: heap.push("a", 99), KeyError),
    (lambda heap: heap.update_key("ghost", 1), KeyError),
    (lambda heap: heap.remove("ghost"), KeyError),
    (lambda heap: heap.key_of("ghost"), KeyError),
])
def test_failed_call_leaves_the_heap_unchanged(call, error):
    heap = AddressableHeap()
    heap.push("a", 2)
    heap.push("b", 1)
    before = snapshot(heap)
    with pytest.raises(error):
        call(heap)
    assert snapshot(heap) == before
    heap.check_invariants()
    heap.push("c", 0)   # still usable
    assert [heap.pop()[0] for _ in range(3)] == ["c", "b", "a"]


@pytest.mark.parametrize("method", ["pop", "peek"])
def test_empty_heap_errors_leave_it_usable(method):
    heap = AddressableHeap()
    heap.push("a", 1)
    heap.update_key("a", 2)   # leaves a stale tuple behind
    heap.remove("a")
    with pytest.raises(IndexError):
        getattr(heap, method)()
    assert len(heap) == 0 and not heap
    heap.check_invariants()
    heap.push("b", 1)
    assert heap.pop() == ("b", 1)


def test_failed_update_key_consumes_no_sequence_number():
    heap = AddressableHeap()
    heap.push("a", 1)
    with pytest.raises(KeyError):
        heap.update_key("ghost", 1)
    with pytest.raises(KeyError):
        heap.push("a", 1)
    heap.push("b", 1)
    assert [heap._live[item][1] for item in ("a", "b")] == [0, 1]
