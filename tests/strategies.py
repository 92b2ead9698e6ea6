"""Hypothesis strategies for small relations and orders."""

from hypothesis import strategies as st

from esfg import Relation, enumerate_partial_orders

_POSETS = {n: tuple(enumerate_partial_orders(n)) for n in range(4)}


def vertex_pairs(universe):
    verts = st.integers(0, universe - 1)
    return st.tuples(verts, verts)


@st.composite
def relations(draw, max_universe=4):
    n = draw(st.integers(0, max_universe))
    if n == 0:
        return Relation(0)
    return Relation(n, draw(st.frozensets(vertex_pairs(n))))


@st.composite
def relation_pairs(draw, max_universe=4):
    """Two relations over one shared universe."""
    n = draw(st.integers(0, max_universe))
    if n == 0:
        return Relation(0), Relation(0)
    first = Relation(n, draw(st.frozensets(vertex_pairs(n))))
    second = Relation(n, draw(st.frozensets(vertex_pairs(n))))
    return first, second


@st.composite
def right_unique_relations(draw, max_universe=5):
    n = draw(st.integers(1, max_universe))
    mapping = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, n - 1)))
    return Relation(n, mapping.items())


def posets(max_universe=3):
    return st.integers(0, max_universe).flatmap(
        lambda n: st.sampled_from(_POSETS[n])
    )
