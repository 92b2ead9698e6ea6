import pytest
from hypothesis import given
from hypothesis import strategies as st

from esfg import SetFamily


def test_is_injective_examples():
    assert SetFamily().is_injective()
    assert not SetFamily({0: {1}, 1: {1}}).is_injective()
    assert SetFamily({0: {1}, 1: {2}}).is_injective()


def test_union_of_range_examples():
    assert SetFamily().union_of_range() == frozenset()
    assert SetFamily({0: {1, 2}, 1: {2, 3}}).union_of_range() == {1, 2, 3}
    assert SetFamily({0: ()}).union_of_range() == frozenset()


def test_rejects_negative_labels_and_keys():
    with pytest.raises(ValueError):
        SetFamily({-1: {0}})
    with pytest.raises(ValueError):
        SetFamily({0: {-2}})


@given(st.permutations(range(6)))
def test_accessors_come_out_in_key_order(keys):
    """Whatever order the entries arrive in, ``keys``, ``items()`` and
    ``values()`` are sorted by key, and the family equals and hashes like
    the one built in sorted order."""
    shuffled = SetFamily({k: {k, 10 + k % 3} for k in keys})
    ordered = SetFamily({k: {k, 10 + k % 3} for k in range(6)})
    assert shuffled.keys == tuple(range(6))
    assert shuffled.items() == tuple((k, frozenset({k, 10 + k % 3})) for k in range(6))
    assert shuffled.values() == tuple(frozenset({k, 10 + k % 3}) for k in range(6))
    assert list(shuffled) == list(range(6))
    assert shuffled == ordered and hash(shuffled) == hash(ordered)
