import json
import subprocess
import sys

import pytest

import esfg.cli as cli_mod
from esfg.cli import main

ES_DISCRETE = '{"kind":"es","universe":2,"causality":[[0,0],[1,1]],"conflict":[]}'
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
            ["complement-causality-not-antisymmetric", "family-not-injective"],
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


def test_enumerate_emits_files(tmp_path, capsys):
    out = tmp_path / "emitted"
    assert main(["enumerate", "--n", "2", "--kind", "es", "--emit", str(out)]) == 0
    files = sorted(out.glob("es-n2-*.json"))
    assert len(files) == 4
    seen = {f.read_bytes() for f in files}
    assert len(seen) == 4


def test_enumerate_size_gate(capsys):
    """The largest n of each kind of work needs --slow; one more is refused."""
    for kind, count_only, largest in (("es", True, 7), ("fg", True, 6), ("es", False, 5)):
        args = ["enumerate", "--n", str(largest), "--kind", kind]
        args += ["--count-only"] if count_only else []
        assert main(args) == 2
        assert "--slow" in capsys.readouterr().err
        args[2] = str(largest + 1)
        assert main(args + ["--slow"]) == 2
    assert main(["enumerate", "--n", "-1", "--kind", "es", "--count-only"]) == 2
    assert main(["verify", "--n", "-1"]) == 2


def test_verify_small(capsys):
    assert main(["verify", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "counts-agree-on-both-paths: PASS" in out
    assert "FAIL" not in out


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
