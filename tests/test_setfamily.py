import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from esfg import (
    Relation,
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


def test_rejects_a_duplicate_key():
    with pytest.raises(ValueError, match="^duplicate key 0$"):
        SetFamily([(0, {1}), (0, {2})])


def test_a_set_family_is_immutable():
    """No field can be assigned or deleted, and each is part of the value:
    the same masks over other labels are another family."""
    family = SetFamily({0: {1}, 1: {2}})
    for name in ("keys", "labels", "masks"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(family, name, ())
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(family, name)
    assert family == SetFamily({0: {1}, 1: {2}})
    assert family != SetFamily({0: {1}, 1: {3}})


def test_a_family_never_equals_a_foreign_value():
    family = SetFamily({0: {1}})
    assert (family == {0: frozenset({1})}) is False
    assert (family == Relation(2, {(0, 1)})) is False


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


#: Families as plain dicts of frozensets, the reference the stored form is
#: checked against; labels reach 70, past one 64-bit word of masks.
plain_families = st.dictionaries(
    st.integers(0, 6), st.frozensets(st.integers(0, 70), max_size=6), max_size=6
)


@given(plain_families, st.data())
def test_the_stored_form_agrees_with_a_dict_of_frozensets(sets, data):
    """Every accessor, ``union_of_range``, ``is_injective``, ``repr`` and
    the stored labels and masks against the dict, and ``==`` and ``hash``
    against dict equality, on a shuffled copy and on a drawn second dict
    that often differs by one label."""
    family = SetFamily(sets)
    ordered = sorted(sets.items())
    assert family.keys == tuple(sorted(sets)) and list(family) == sorted(sets)
    assert family.items() == tuple(ordered)
    assert family.values() == tuple(value for _, value in ordered)
    assert len(family) == len(sets) and all(k in family for k in sets) and 7 not in family
    union = frozenset().union(*sets.values())
    assert family.union_of_range() == union and family.labels == tuple(sorted(union))
    assert family.masks == tuple(
        sum(1 << i for i, label in enumerate(family.labels) if label in value)
        for _, value in ordered
    )
    assert family.is_injective() == (len(set(sets.values())) == len(sets))
    assert repr(family) == "SetFamily({%s})" % ", ".join(f"{k}: {sorted(v)}" for k, v in ordered)

    shuffled = SetFamily(data.draw(st.permutations(ordered)))
    assert shuffled == family and hash(shuffled) == hash(family)
    other = dict(sets)
    if sets and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(sets)))
        other[key] = other[key] ^ {data.draw(st.integers(0, 70))}
    else:
        other = data.draw(plain_families)
    assert (SetFamily(other) == family) == (other == sets)
    if other == sets:
        assert hash(SetFamily(other)) == hash(family)


@given(st.lists(st.integers(0, 2**70 - 1) | st.integers(0, 15), max_size=6), st.integers(0, 2**32))
def test_a_family_of_masks_equals_the_family_of_their_label_sets(masks, seed):
    """``_of_masks(keys, masks)`` reads bit i as label i, and with labels
    handed in as labels[i]; unused labels drop out either way, so the
    result equals the family built from the label sets."""
    keys = [3 * i + 1 for i in range(len(masks))]
    labels = sorted(random.Random(seed).sample(range(300), 70))

    def selected(mask, names):
        return {names[i] for i in range(mask.bit_length()) if mask >> i & 1}

    expected = SetFamily({k: selected(m, range(70)) for k, m in zip(keys, masks)})
    assert SetFamily._of_masks(keys, masks) == expected
    relabelled = SetFamily({k: selected(m, labels) for k, m in zip(keys, masks)})
    assert SetFamily._of_masks(keys, masks, labels) == relabelled


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
