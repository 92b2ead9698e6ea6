import pytest

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

