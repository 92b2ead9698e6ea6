"""Acceptance suite: every criterion runs exhaustively at its stated size
and prints one PASS/FAIL line (run with ``pytest -s`` to see them live).

Expected values are computed here by independent means (complete scans,
zero-structure filters, seeded random probes), never copied from the code
paths under test.
"""

import random
import time
from itertools import product

import pytest

from esfg import (
    EventStructure,
    Relation,
    build_representation,
    count_es,
    count_fg,
    enumerate_partial_orders,
    es_to_fg,
    fg_to_es,
    find_representation_bruteforce,
    incomparable_complement,
    is_event_structure,
    is_fg_representation,
    is_representation,
    oeis_crosscheck,
    OeisError,
    parse_document,
    serialize_document,
    structure_from_representation,
    verify_bijection,
)
from esfg.documents import from_event_structure, from_full_graph
from esfg.enumeration import emit_structures

from . import reference
from .strategies import small_structures


def report(number, name, violations, detail=""):
    status = "PASS" if not violations else "FAIL"
    print(f"[acceptance {number}] {name}: {status} {detail}".rstrip())
    assert not violations, f"{len(violations)} violations, first: {violations[:3]}"


def test_criterion_1_builder_completeness_up_to_n4():
    started = time.perf_counter()
    violations = []
    built = 0
    for order, conflict in small_structures(4):
        try:
            cert = build_representation(order, conflict)
        except ValueError as exc:
            violations.append(f"{sorted(order.pairs)} {sorted(conflict.pairs)}: {exc}")
            continue
        built += 1
        # certificate construction re-validates the five requirements; spell
        # them out anyway so a silent regression there cannot hide
        family = cert.family
        if not (
            is_representation(family, order, conflict)
            and family.is_injective()
            and family.keys == order.field
            and frozenset() not in set(family.values())
            and all(v < cert.fresh_label_bound for v in family.union_of_range())
        ):
            violations.append(f"invalid certificate for {sorted(order.pairs)}")
    elapsed = time.perf_counter() - started
    report(1, "builder-succeeds-on-every-structure", violations,
           f"({built} structures, {elapsed:.1f}s)")
    assert built == 1 + 1 + 4 + 41 + 916
    assert elapsed < 120


@pytest.fixture(scope="module")
def oracle_sweep():
    """Criterion 2 computation, shared with criterion 3: compare the
    exhaustive existence search against the validity predicate."""
    started = time.perf_counter()
    violations = []
    found = []
    scanned = 0

    # complete scan of all relation pairs on two points
    rels2 = [Relation(2, r) for r in reference.all_relations(2)]
    for order, conflict in product(rels2, rels2):
        if not set(conflict.field) <= set(order.field):
            continue
        scanned += 1
        family = find_representation_bruteforce(order, conflict, 4)
        if (family is not None) != is_event_structure(order, conflict):
            violations.append(f"n=2 {sorted(order.pairs)} {sorted(conflict.pairs)}")
        if family is not None:
            found.append((family, order, conflict))

    # all orders on three points times all symmetric conflict candidates
    sym3 = [Relation(3, u) for u in reference.symmetric_relations(3)]
    for order in enumerate_partial_orders(3):
        for conflict in sym3:
            scanned += 1
            family = find_representation_bruteforce(order, conflict, 9)
            if (family is not None) != is_event_structure(order, conflict):
                violations.append(f"n=3 {sorted(order.pairs)} {sorted(conflict.pairs)}")
            if family is not None:
                found.append((family, order, conflict))

    # seeded random non-order probes: never representable
    rng = random.Random(20240801)
    cells = [(a, b) for a in range(3) for b in range(3)]
    probes = 0
    while probes < 10000:
        order = Relation(3, (c for c in cells if rng.random() < 0.5))
        if reference.is_partial_order(order.pairs):
            continue
        members = set(order.field)
        conflict = Relation(
            3,
            (
                (a, b)
                for a, b in cells
                if a in members and b in members and rng.random() < 0.3
            ),
        )
        probes += 1
        scanned += 1
        family = find_representation_bruteforce(order, conflict, 9)
        if (family is not None) != is_event_structure(order, conflict):
            violations.append(
                f"probe {sorted(order.pairs)} {sorted(conflict.pairs)} disagrees"
            )
        if family is not None:
            found.append((family, order, conflict))
    return {
        "violations": violations,
        "found": found,
        "scanned": scanned,
        "elapsed": time.perf_counter() - started,
    }


def test_criterion_2_oracle_matches_validity(oracle_sweep):
    report(
        2,
        "search-existence-equals-validity",
        oracle_sweep["violations"],
        f"({oracle_sweep['scanned']} pairs, {len(oracle_sweep['found'])} representable, "
        f"{oracle_sweep['elapsed']:.1f}s)",
    )


def test_criterion_3_structural_consequences(oracle_sweep):
    violations = []
    for family, order, conflict in oracle_sweep["found"]:
        flags = structure_from_representation(family, order, conflict)
        if not flags.all_hold:
            violations.append(f"{sorted(order.pairs)} {sorted(conflict.pairs)}: {flags}")
    report(3, "found-families-force-the-structure", violations,
           f"({len(oracle_sweep['found'])} families)")


def test_criterion_4_bijection_reports():
    started = time.perf_counter()
    violations = []
    checked = 0
    for n in range(4):
        for order in enumerate_partial_orders(n):
            outcome = verify_bijection(order)
            checked += 1
            if not outcome.all_hold or outcome.x_size != outcome.y_size:
                violations.append(f"order {sorted(order.pairs)}")
    rng = random.Random(7)
    cells = [(a, b) for a in range(3) for b in range(3)]
    for _ in range(1000):
        base = Relation(3, (c for c in cells if rng.random() < 0.5))
        outcome = verify_bijection(base)
        checked += 1
        if not outcome.all_hold or outcome.x_size != outcome.y_size:
            violations.append(f"random {sorted(base.pairs)}")
    elapsed = time.perf_counter() - started
    report(4, "complement-bijects-the-two-sides", violations,
           f"({checked} relations, {elapsed:.1f}s)")
    assert elapsed < 60


def test_criterion_5_count_coincidence():
    violations = []
    for n in range(5):
        es_total = count_es(n)
        fg_total = count_fg(n)
        if es_total != fg_total:
            violations.append(f"n={n}: es={es_total} fg={fg_total}")

    # zero-structure brute force at n <= 2: filter every relation pair
    for n in range(3):
        brute = reference.count_event_structures(n)
        if brute != count_es(n):
            violations.append(f"n={n}: brute={brute} count={count_es(n)}")
    if count_es(1) != 1:
        violations.append("count_es(1) != 1")
    if count_es(2) != 4:
        violations.append("count_es(2) != 4")
    report(5, "both-counting-paths-coincide", violations,
           f"(n=0..4: {[count_es(k) for k in range(5)]})")


def test_criterion_6_one_family_certifies_both_sides():
    violations = []
    checked = 0
    for order, conflict in small_structures(3):
        graph = es_to_fg(EventStructure(order, conflict))
        family = graph.certificate
        checked += 1
        if not is_representation(family, order, conflict):
            violations.append(f"repr side {sorted(order.pairs)}")
        if not is_fg_representation(
            family, order, incomparable_complement(order, conflict)
        ):
            violations.append(f"graph side {sorted(order.pairs)}")
    report(6, "shared-certificate", violations, f"({checked} structures)")


def test_criterion_7_roundtrips_and_algebra():
    violations = []

    for order, conflict in small_structures(3):
        structure = EventStructure(order, conflict)
        graph = es_to_fg(structure)
        if fg_to_es(graph) != structure:
            violations.append(f"es roundtrip {sorted(order.pairs)} {sorted(conflict.pairs)}")
        again = es_to_fg(fg_to_es(graph))
        if (again.directed, again.undirected) != (graph.directed, graph.undirected):
            violations.append(f"fg roundtrip {sorted(order.pairs)}")

    # complement algebra over every subset of the incomparability square
    for n in range(4):
        for order in enumerate_partial_orders(n):
            subsets = reference.all_relations(n, within=order.sym_complement().pairs)
            images = set()
            for pairs in subsets:
                chosen = Relation(n, pairs)
                image = incomparable_complement(order, chosen)
                if image.pairs != reference.incomparable_complement(order.pairs, pairs):
                    violations.append(f"complement {sorted(order.pairs)} {sorted(pairs)}")
                if incomparable_complement(order, image) != chosen:
                    violations.append(f"involution {sorted(order.pairs)} {sorted(pairs)}")
                images.add(image)
            if len(images) != len(subsets):
                violations.append(f"injectivity {sorted(order.pairs)}")

    # override keeps right-uniqueness on seeded random function pairs
    rng = random.Random(99)
    for _ in range(10000):
        size = rng.randint(1, 5)
        p = Relation(
            size,
            {(a, rng.randrange(size)) for a in range(size) if rng.random() < 0.7},
        )
        q = Relation(
            size,
            {(a, rng.randrange(size)) for a in range(size) if rng.random() < 0.5},
        )
        if not p.override(q).is_right_unique:
            violations.append(f"override {sorted(p.pairs)} {sorted(q.pairs)}")
    report(7, "roundtrips-involution-override", violations)


def test_criterion_8_io_round_trip_and_oeis_cache(tmp_path):
    violations = []

    emitted = []
    for n in range(4):
        emit_structures(n, "es", emitted.append)
        emit_structures(n, "fg", emitted.append)
    for blob in emitted:
        doc = parse_document(blob)
        if serialize_document(doc) != blob:
            violations.append(f"canonical bytes changed: {blob[:60]!r}")
    for order, conflict in small_structures(3):
        doc = from_event_structure(EventStructure(order, conflict))
        if parse_document(serialize_document(doc)) != doc:
            violations.append(f"es doc {sorted(order.pairs)}")
        graph_doc = from_full_graph(es_to_fg(EventStructure(order, conflict)))
        if parse_document(serialize_document(graph_doc)) != graph_doc:
            violations.append(f"fg doc {sorted(order.pairs)}")

    # offline cache behaviour
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "A000001.bfile.txt").write_text("1 1\n2 4\n")
    check = oeis_crosscheck("A000001", [1, 4], cache_dir=cache, offline=True)
    if check.match_prefix_length != 2:
        violations.append("cached comparison should match both terms")
    try:
        oeis_crosscheck("A999999", [1], cache_dir=cache, offline=True)
        violations.append("offline cache miss should raise")
    except OeisError as exc:
        if exc.code != "cache-miss":
            violations.append(f"wrong cache-miss code {exc.code}")
    mixed = oeis_crosscheck("A000001", [1, 5], cache_dir=cache, offline=True)
    if mixed.match_prefix_length != 1 or mixed.is_full_match:
        violations.append("mismatch should be reported with prefix 1")

    report(8, "documents-and-oeis-cache", violations, f"({len(emitted)} documents)")
