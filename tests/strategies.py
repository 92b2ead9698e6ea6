"""Hypothesis strategies for relations, orders, event structures and full
graphs, and every small event structure, the orders, structures and
graphs taken from the reference definitions."""

import random

from hypothesis import strategies as st

from esfg import Relation

from . import reference

_POSETS = {n: tuple(Relation(n, order) for order in reference.partial_orders(n)) for n in range(4)}


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


def small_structures(max_n):
    """Every event structure on at most ``max_n`` events, as (causality,
    conflict) relations, in the order the package enumerates them."""
    for n in range(max_n + 1):
        for order, conflict in reference.event_structures(n):
            yield Relation(n, order), Relation(n, conflict)


def posets(max_universe=3):
    return st.integers(0, max_universe).flatmap(
        lambda n: st.sampled_from(_POSETS[n])
    )


@st.composite
def event_structures(draw, max_events=40):
    """A valid event structure of 8 to ``max_events`` events, labels
    shuffled, as (causality, conflict) relations."""
    n = draw(st.integers(8, max_events))
    order, conflict = reference.random_structure(random.Random(draw(st.integers(0, 2**32))), n)
    return Relation(n, order), Relation(n, conflict)


@st.composite
def full_graphs(draw, max_events=40):
    """A full graph of 8 to ``max_events`` vertices, labels shuffled, as
    (directed, undirected) relations."""
    n = draw(st.integers(8, max_events))
    rng = random.Random(draw(st.integers(0, 2**32)))
    directed, undirected = reference.random_full_graph(rng, n)
    return Relation(n, directed), Relation(n, undirected)
