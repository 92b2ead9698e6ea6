import hashlib
import io
import json
import random
import subprocess
import sys

import pytest

import esfg.cli as cli_mod
import esfg.verify as verify_mod
from esfg import (
    DocumentError,
    Relation,
    build_representation,
    export_dot,
    parse_document,
    representation_document,
    serialize_document,
)
from esfg.cli import main

from . import reference

ES_DISCRETE = '{"kind":"es","universe":2,"causality":[[0,0],[1,1]],"conflict":[]}'
ES_PAIRS = '"causality":[[0,0],[1,1]],"conflict":[]'
FG_DISCRETE = '{"kind":"fg","universe":2,"directed":[[0,0],[1,1]],"undirected":[]}'
#: A chain 0 < 1 < 2 with 3 in conflict with all of it: arrows that
#: ``--hasse`` reduces, and dashed lines.
ES_CHAIN_IN_CONFLICT = (
    '{"kind":"es","universe":4,"causality":[[0,0],[0,1],[0,2],[1,1],[1,2],[2,2],[3,3]],'
    '"conflict":[[0,3],[1,3],[2,3],[3,0],[3,1],[3,2]]}'
)
ES_INVALID = (
    '{"kind":"es","universe":2,"causality":[[0,0],[1,1],[0,1]],'
    '"conflict":[[0,1],[1,0]]}'
)


@pytest.fixture
def es_file(tmp_path):
    path = tmp_path / "discrete.json"
    path.write_text(ES_DISCRETE)
    return path


def test_check_valid(capsys, es_file):
    assert main(["check", str(es_file)]) == 0
    assert "valid es document" in capsys.readouterr().out


def test_check_invalid(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(ES_INVALID)
    assert main(["check", str(path)]) == 1
    assert "conflict-not-propagating" in capsys.readouterr().out


def test_check_malformed(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind":"es","universe":2,"causality":[[0,3]],"conflict":[]}')
    assert main(["check", str(path)]) == 2
    assert "bounds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document, lines",
    [
        (  # equal sets for two events: only a cyclic causality matches them
            '{"kind":"es","universe":2,"causality":[[0,0],[0,1],[1,0],[1,1]],'
            '"conflict":[],"family":[[0,[1]],[1,[1]]]}',
            ["causality-not-antisymmetric", "family-not-injective"],
        ),
        (
            '{"kind":"representation","universe":1,"causality":[[0,0]],'
            '"conflict":[[0,0]],"family":[[0,[]]]}',
            ["conflict-not-irreflexive", "family-contains-empty-set"],
        ),
        (
            '{"kind":"es","universe":2,"causality":[[0,0],[1,1]],'
            '"conflict":[],"family":[[0,[0]]]}',
            ["family-keys-differ-from-vertices"],
        ),
        (
            '{"kind":"representation","universe":2,"causality":[[0,0],[1,1]],'
            '"conflict":[],"family":[[0,[0]],[1,[1]]]}',
            ["family-is-not-a-representation"],
        ),
        (
            '{"kind":"fg","universe":2,"directed":[[0,0],[0,1],[1,0],[1,1]],'
            '"undirected":[],"family":[[0,[1]],[1,[1]]]}',
            ["directed-not-a-partial-order", "family-not-injective"],
        ),
        (
            '{"kind":"fg","universe":1,"directed":[[0,0]],"undirected":[],'
            '"family":[[0,[]]]}',
            ["family-contains-empty-set"],
        ),
        (
            '{"kind":"fg","universe":2,"directed":[[0,0],[1,1]],'
            '"undirected":[[0,1],[1,0]],"family":[[0,[0]]]}',
            ["family-keys-differ-from-vertices"],
        ),
        (
            '{"kind":"fg","universe":2,"directed":[[0,0],[1,1]],'
            '"undirected":[[0,1],[1,0]],"family":[[0,[0]],[1,[1]]]}',
            ["family-is-not-an-fg-representation"],
        ),
    ],
)
def test_check_prints_every_family_failure(capsys, tmp_path, document, lines):
    path = tmp_path / "doc.json"
    path.write_text(document)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == lines


def test_check_accepts_a_huge_label(capsys, tmp_path):
    """The family check numbers the labels before it makes masks, so a
    label of 10**18 costs what a label of 1 does."""
    path = tmp_path / "huge.json"
    path.write_text(
        '{"kind":"representation","universe":2,"causality":[[0,0],[0,1],[1,1]],'
        f'"conflict":[],"family":[[0,[0,{10**18}]],[1,[{10**18}]]]}}'
    )
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "valid representation document (2 vertices)\n"


def test_check_rejects_deep_nesting_as_syntax(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert main(["check", str(path)]) == 2
    assert "input error: syntax:" in capsys.readouterr().err


def test_represent_outputs_a_checked_family(capsys, es_file):
    assert main(["represent", str(es_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "representation"
    assert payload["family"] == [[0, [1, 2]], [1, [0, 1]]]


def test_represent_rejects_invalid_structures(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(ES_INVALID)
    assert main(["represent", str(path)]) == 1
    assert "conflict-not-propagating" in capsys.readouterr().err


def test_convert_round_trip(tmp_path, es_file):
    fg_path = tmp_path / "graph.json"
    assert main(["convert", "--to", "fg", str(es_file), "-o", str(fg_path)]) == 0
    graph = json.loads(fg_path.read_text())
    assert graph["kind"] == "fg"
    assert graph["undirected"] == [[0, 1], [1, 0]]
    assert "family" in graph

    back_path = tmp_path / "back.json"
    assert main(["convert", "--to", "es", str(fg_path), "-o", str(back_path)]) == 0
    back = json.loads(back_path.read_text())
    assert back["kind"] == "es"
    assert back["causality"] == [[0, 0], [1, 1]]
    assert back["conflict"] == []


def test_convert_requires_the_other_kind(capsys, es_file):
    assert main(["convert", "--to", "es", str(es_file)]) == 2


def test_an_fg_document_is_refused_where_an_es_one_is_needed(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(FG_DISCRETE)
    assert main(["represent", str(path)]) == 2
    assert "represent expects an es document" in capsys.readouterr().err
    assert main(["convert", "--to", "fg", str(path)]) == 2
    assert "already a fg document" in capsys.readouterr().err


def test_a_missing_input_file_is_an_io_error(capsys, tmp_path):
    for command in (["check"], ["represent"], ["convert", "--to", "fg"], ["dot"]):
        assert main(command + [str(tmp_path / "absent.json")]) == 2, command
        assert capsys.readouterr().err.startswith("io error:"), command


def test_check_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(ES_DISCRETE))
    assert main(["check", "-"]) == 0
    assert capsys.readouterr().out == "valid es document (2 vertices)\n"


#: Documents that each break one rule ``parse_document`` enforces, with
#: the code it raises.
HOSTILE = {
    "relation-not-a-list": ('"causality":{"0":0},"conflict":[]', "schema"),
    "entry-not-a-pair-of-ints": ('"causality":[[0,"1"]],"conflict":[]', "schema"),
    "family-not-a-list": (f'{ES_PAIRS},"family":{{"0":[0]}}', "schema"),
    "family-entry-malformed": (f'{ES_PAIRS},"family":[[0,0],[1,[1]]]', "schema"),
    "label-not-an-integer": (f'{ES_PAIRS},"family":[[0,[0.5]],[1,[1]]]', "schema"),
    "label-negative": (f'{ES_PAIRS},"family":[[0,[-1]],[1,[1]]]', "bounds"),
    "key-outside-universe": (f'{ES_PAIRS},"family":[[0,[0]],[2,[1]]]', "bounds"),
    # past CPython's limit on int digits, which json.loads raises as ValueError
    "label-of-5000-digits": (f'{ES_PAIRS},"family":[[0,[{"9" * 5000}]],[1,[1]]]', "syntax"),
    "vertex-of-5000-digits": (f'"causality":[[{"9" * 5000},0]],"conflict":[]', "syntax"),
}


@pytest.mark.parametrize("fields, code", HOSTILE.values(), ids=HOSTILE)
def test_hostile_documents_are_input_errors(capsys, tmp_path, fields, code):
    document = '{"kind":"es","universe":2,' + fields + "}"
    with pytest.raises(DocumentError) as err:
        parse_document(document)
    assert err.value.code == code
    path = tmp_path / "hostile.json"
    path.write_text(document)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {code}:")


ES_CONFLICT_OUTSIDE = (
    '{"kind":"es","universe":2,"causality":[[0,0]],"conflict":[[0,1],[1,0]]}'
)
FG_EDGE_OUTSIDE = (
    '{"kind":"fg","universe":2,"directed":[[0,0]],"undirected":[[0,1],[1,0]]}'
)


@pytest.mark.parametrize(
    "document, commands",
    [
        (ES_CONFLICT_OUTSIDE, (["check"], ["represent"], ["convert", "--to", "fg"])),
        (FG_EDGE_OUTSIDE, (["check"], ["convert", "--to", "es"])),
    ],
    ids=["es-conflict-outside", "fg-edge-outside"],
)
def test_every_subcommand_calls_a_bad_structure_a_violation(
    capsys, tmp_path, document, commands
):
    path = tmp_path / "doc.json"
    path.write_text(document)
    for command in commands:
        assert main(command + [str(path)]) == 1, command
    out = capsys.readouterr()
    assert "outside" in out.out + out.err


def test_enumerate_count_only(capsys):
    assert main(["enumerate", "--n", "2", "--kind", "es", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["enumerate", "--n", "3", "--kind", "fg", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "41"


def test_enumerate_lists_documents_on_stdout(capsysbinary):
    assert main(["enumerate", "--n", "3", "--kind", "es"]) == 0
    captured = capsysbinary.readouterr()
    documents = captured.out.splitlines()
    assert len(documents) == len(set(documents)) == 41
    assert all(parse_document(document).kind == "es" for document in documents)
    assert captured.err == b"41\n"


def test_enumerate_emits_files(tmp_path, capsys):
    out = tmp_path / "emitted"
    assert main(["enumerate", "--n", "2", "--kind", "es", "--emit", str(out)]) == 0
    files = sorted(out.glob("es-n2-*.json"))
    assert len(files) == 4
    seen = {f.read_bytes() for f in files}
    assert len(seen) == 4


def test_enumerate_size_gate(capsys):
    """The largest n of each kind of work needs --slow; one more is refused."""
    for kind, count_only, largest in (("es", True, 7), ("fg", True, 7), ("es", False, 5)):
        args = ["enumerate", "--n", str(largest), "--kind", kind]
        args += ["--count-only"] if count_only else []
        assert main(args) == 2
        assert "--slow" in capsys.readouterr().err
        args[2] = str(largest + 1)
        assert main(args + ["--slow"]) == 2
    assert main(["enumerate", "--n", "-1", "--kind", "es", "--count-only"]) == 2
    assert main(["verify", "--n", "-1"]) == 2


def test_verify_size_gate(capsys):
    """verify has its own limit: its largest n needs --slow, one more is
    refused even with it."""
    assert main(["verify", "--n", "6"]) == 2
    assert "--slow" in capsys.readouterr().err
    assert main(["verify", "--n", "7", "--slow"]) == 2
    assert "verify limit 6" in capsys.readouterr().err


def test_main_calls_parse_independently(capsys, monkeypatch):
    """The parser is built once per process; a flag given to one call
    does not carry over to the next."""
    passed = verify_mod.SuiteReport(n=6, checks=())
    monkeypatch.setattr(cli_mod, "run_theorem_suite", lambda n: passed)
    assert main(["verify", "--n", "6", "--slow"]) == 0
    assert main(["verify", "--n", "6"]) == 2
    assert "--slow" in capsys.readouterr().err


def test_verify_small(capsys):
    """The whole output of the benchmark's ``verify`` workload, line for
    line, so that tier-1 holds the gate the benchmark applies."""
    assert main(["verify", "--n", "4"]) == 0
    assert capsys.readouterr().out == (
        "representation-built-for-every-structure: PASS (963 structures)\n"
        "one-family-certifies-both-sides: PASS (963 structures)\n"
        "conversions-round-trip: PASS (963 structures)\n"
        "complement-is-a-bijection-per-order: PASS (243 orders)\n"
        "counts-agree-on-both-paths: PASS (sizes 0..4)\n"
        "oracle-agrees-with-validity-check: PASS (217 relation pairs)\n"
    )


#: sha256 over the exit codes and output bytes of
#: ``test_document_commands_keep_their_bytes``.
DOCUMENT_COMMANDS_DIGEST = "cc2123579974bfb76da8a4c0d59343b67a9daff7cff1861ef9fef1f56f864d48"


def test_document_commands_keep_their_bytes(capsysbinary, tmp_path):
    """``represent``, ``check``, ``convert --to fg`` and ``convert --to es``
    in-process on 20 drawn structures of 8 to 40 events, documents written
    without the package: one digest over every exit code and every byte
    they print or write, so that a changed certificate byte fails."""
    rng = random.Random(2306)
    source, certificate, graph, back = (
        tmp_path / name for name in ("es.json", "rep.json", "fg.json", "back.json")
    )
    digest = hashlib.sha256()
    for _ in range(20):
        n = rng.randint(8, 40)
        order, conflict = reference.random_structure(rng, n)
        document = {"kind": "es", "universe": n}
        document.update(causality=sorted(order), conflict=sorted(conflict))
        source.write_text(json.dumps(document, separators=(",", ":")))
        for argv, written in (
            (["represent", str(source), "-o", str(certificate)], certificate),
            (["check", str(certificate)], None),
            (["convert", "--to", "fg", str(source), "-o", str(graph)], graph),
            (["convert", "--to", "es", str(graph), "-o", str(back)], back),
        ):
            digest.update(b"%d\n" % main(argv) + capsysbinary.readouterr().out)
            if written is not None:
                digest.update(written.read_bytes())
    assert digest.hexdigest() == DOCUMENT_COMMANDS_DIGEST


#: sha256 of the documents ``esfg enumerate --n N --kind K`` writes to
#: stdout, by (N, K): the emitted structures and their order.
ENUMERATE_DIGESTS = {
    (4, "es"): "79b3bb6c33344cd0093b2f949d2434f9aa49c21d208126a77847af9b4caf931c",
    (4, "fg"): "0111900bb97fc1da5cf9ab4bc5463c3168d0a606cba1c0834a29e2f525e5d5c9",
    (5, "es"): "ff7d31327f9bf90a8da71289807e9baa54819a9b6846e066d1c235683336c23c",
    (5, "fg"): "08ed09cd69d937c082b8c20064e914a1bb6918ef2b547512a9b3dea7d9d3508b",
}


@pytest.mark.parametrize(
    "n, kind",
    [
        (4, "es"),
        (4, "fg"),
        pytest.param(5, "es", marks=pytest.mark.slow),
        pytest.param(5, "fg", marks=pytest.mark.slow),
    ],
)
def test_enumerate_keeps_its_bytes(capsysbinary, n, kind):
    assert main(["enumerate", "--n", str(n), "--kind", kind, "--slow"]) == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == ENUMERATE_DIGESTS[n, kind]


#: One event at the top of a universe of 10^12: nothing may be sized by it.
ES_LARGE_UNIVERSE = (
    '{"kind":"es","universe":1000000000000,'
    '"causality":[[999999999999,999999999999]],"conflict":[]}'
)


def test_a_large_universe_costs_nothing(capsys, tmp_path):
    """The universe bounds the vertices and sizes nothing: ``check``,
    ``represent`` and ``convert --to fg`` take a one-event document over
    10^12 vertices in stride, and so does a relation over them."""
    path = tmp_path / "large.json"
    path.write_text(ES_LARGE_UNIVERSE)
    for command in (["check"], ["represent"], ["convert", "--to", "fg"]):
        assert main(command + [str(path)]) == 0, command
    out = capsys.readouterr().out
    assert "valid es document (1 vertices)" in out
    assert '"family":[[999999999999,[0]]]' in out
    assert Relation(10**12, [(0, 10**12 - 1)]).field == (0, 10**12 - 1)


def test_dot_hasse(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(
        '{"kind":"es","universe":3,"causality":'
        '[[0,0],[0,1],[0,2],[1,1],[1,2],[2,2]],"conflict":[]}'
    )
    assert main(["dot", "--hasse", str(path)]) == 0
    rendered = capsys.readouterr().out
    assert "0 -> 1;" in rendered and "1 -> 2;" in rendered
    assert "0 -> 2;" not in rendered


@pytest.mark.parametrize("hasse", [False, True], ids=["dot", "hasse"])
def test_dot_writes_the_same_bytes_to_a_file_and_to_stdout(
    capsysbinary, tmp_path, hasse
):
    path = tmp_path / "chain.json"
    path.write_text(ES_CHAIN_IN_CONFLICT)
    expected = export_dot(parse_document(ES_CHAIN_IN_CONFLICT), hasse=hasse).encode()
    flags = ["dot", str(path)] + (["--hasse"] if hasse else [])
    out = tmp_path / "chain.dot"
    assert main(flags + ["-o", str(out)]) == 0
    assert out.read_bytes() == expected
    assert main(flags) == 0
    assert capsysbinary.readouterr().out == expected


def test_represent_ends_stdout_with_a_newline_and_a_file_without(capsysbinary, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(ES_CHAIN_IN_CONFLICT)
    doc = parse_document(ES_CHAIN_IN_CONFLICT)
    family = build_representation(doc.causality, doc.conflict).family
    expected = serialize_document(representation_document(doc.causality, doc.conflict, family))
    out = tmp_path / "representation.json"
    assert main(["represent", str(path), "-o", str(out)]) == 0
    assert out.read_bytes() == expected
    assert main(["represent", str(path)]) == 0
    assert capsysbinary.readouterr().out == expected + b"\n"


def test_dot_hasse_calls_a_non_order_a_violation(capsys, tmp_path):
    path = tmp_path / "unreflexive.json"
    path.write_text('{"kind":"es","universe":2,"causality":[[0,1]],"conflict":[]}')
    for command in (["dot", "--hasse"], ["represent"], ["convert", "--to", "fg"]):
        assert main(command + [str(path)]) == 1, command
        assert "violation:" in capsys.readouterr().err
    assert main(["dot", str(path)]) == 0
    assert "0 -> 1;" in capsys.readouterr().out


def test_oeis_offline_with_cache(capsys, tmp_path):
    (tmp_path / "A000112.bfile.txt").write_text("0 1\n1 1\n2 4\n3 41\n")
    code = main(
        [
            "oeis",
            "--sequence",
            "A000112",
            "--kind",
            "es",
            "--upto",
            "3",
            "--offline",
            "--cache",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert "full prefix of length 4" in capsys.readouterr().out


def test_oeis_reports_mismatch_without_failing(capsys, tmp_path):
    (tmp_path / "A000112.bfile.txt").write_text("0 1\n1 1\n2 5\n")
    code = main(
        [
            "oeis",
            "--sequence",
            "A000112",
            "--kind",
            "es",
            "--upto",
            "2",
            "--offline",
            "--cache",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert "MISMATCH at position 2" in capsys.readouterr().out


def test_oeis_rejects_a_negative_size(capsys, tmp_path, monkeypatch):
    def no_fetching(*args, **kwargs):
        raise AssertionError("fetched before checking the size")

    monkeypatch.setattr(cli_mod, "fetch_bfile", no_fetching)
    (tmp_path / "A000001.bfile.txt").write_text("0 1\n1 1\n")
    code = main(
        [
            "oeis",
            "--sequence",
            "A000001",
            "--kind",
            "es",
            "--upto",
            "-1",
            "--offline",
            "--cache",
            str(tmp_path),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "natural number" in captured.err


def test_oeis_refuses_the_largest_size_without_slow(capsys, monkeypatch):
    def no_fetching(*args, **kwargs):
        raise AssertionError("fetched before checking the size")

    monkeypatch.setattr(cli_mod, "fetch_bfile", no_fetching)
    code = main(["oeis", "--sequence", "A000112", "--kind", "es", "--upto", "7"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pass --slow" in captured.err


def test_oeis_offline_cache_miss(capsys, tmp_path, monkeypatch):
    def no_counting(n):
        raise AssertionError("counted before looking at the cache")

    monkeypatch.setattr(cli_mod, "count_es", no_counting)
    monkeypatch.setattr(cli_mod, "count_fg", no_counting)
    code = main(
        [
            "oeis",
            "--sequence",
            "A000112",
            "--kind",
            "es",
            "--upto",
            "1",
            "--offline",
            "--cache",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert "cache-miss" in capsys.readouterr().err


def test_stdin_and_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "esfg", "check", "-"],
        input=ES_DISCRETE,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "valid es document" in proc.stdout
