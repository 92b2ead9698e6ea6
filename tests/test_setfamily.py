import pytest
from hypothesis import given
from hypothesis import strategies as st

from esfg import (
    SetFamily,
    build_representation,
    enumerate_admissible_conflicts,
    incomparable_complement,
)
from esfg.setfamily import _mask_relations, family_failures, represents

from . import reference
from .strategies import posets, relations


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


@st.composite
def builder_families(draw):
    """The builder's family of a small event structure, sometimes with one
    label added to or dropped from one set, and the structure's relations."""
    order = draw(posets())
    conflict = draw(st.sampled_from(enumerate_admissible_conflicts(order)))
    sets = dict(build_representation(order, conflict).family.items())
    if sets and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(sets)))
        label = draw(st.integers(0, max(set().union(*sets.values())) + 1))
        sets[key] = sets[key] ^ {label}
    undirected = incomparable_complement(order, conflict)
    return SetFamily(sets), order, draw(st.sampled_from((conflict, undirected)))


#: The cases both family checks below are drawn from: builder families,
#: some with one label flipped, and arbitrary small families with relations.
drawn_cases = st.one_of(
    builder_families(),
    st.tuples(
        st.dictionaries(st.integers(0, 3), st.frozensets(st.integers(0, 4))).map(SetFamily),
        relations(),
        relations(),
    ),
)


@given(drawn_cases)
def test_represents_agrees_with_the_frozenset_reference(case):
    """``represents`` and ``family_failures`` against the reference
    representation and certificate checks, in both modes."""
    family, containment, second = case
    for overlap in (False, True):
        pairs = (containment.pairs, second.pairs)
        expected = reference.represents(family, *pairs, overlap=overlap)
        assert represents(family, containment, second, overlap=overlap) == expected
        certified = reference.certifies(family, *pairs, overlap=overlap)
        assert (not family_failures(family, containment, second, overlap=overlap)) == certified


@given(drawn_cases)
def test_mask_relations_agree_with_the_frozenset_relations(case):
    """All three rows, the one ``represents`` skips in each mode included,
    against the relations the label sets realise, keyed by position."""
    sets = dict(enumerate(case[0].values()))
    masks = [sum(1 << label for label in labels) for labels in sets.values()]
    contains, apart = reference.realised(sets, overlap=False)
    _, over = reference.realised(sets, overlap=True)
    rows = [[sum(1 << y for y in sets if (x, y) in r) for x in sets] for r in (contains, apart, over)]
    assert _mask_relations(masks) == tuple(rows)
