import subprocess
import sys

import pytest

import esfg.oeis as oeis_mod
from esfg import OeisError, oeis_crosscheck
from esfg.cli import main


def test_cached_bfile_full_match(tmp_path):
    (tmp_path / "A000001.bfile.txt").write_text("1 1\n2 4\n")
    check = oeis_crosscheck("A000001", [1, 4], cache_dir=tmp_path, offline=True)
    assert check.fetched_terms == (1, 4)
    assert check.match_prefix_length == 2
    assert check.is_full_match


def test_offline_cache_miss(tmp_path):
    with pytest.raises(OeisError) as err:
        oeis_crosscheck("A000001", [1, 4], cache_dir=tmp_path, offline=True)
    assert err.value.code == "cache-miss"


def test_mismatch_is_reported_not_raised(tmp_path):
    (tmp_path / "A000001.bfile.txt").write_text("1 1\n2 4\n")
    check = oeis_crosscheck("A000001", [1, 5], cache_dir=tmp_path, offline=True)
    assert check.match_prefix_length == 1
    assert not check.is_full_match


def test_comments_and_blanks_are_skipped(tmp_path):
    (tmp_path / "A000001.bfile.txt").write_text("# header\n\n0 1\n1 1\n2 4\n")
    check = oeis_crosscheck("A000001", [1, 1, 4, 41], cache_dir=tmp_path, offline=True)
    assert check.fetched_terms == (1, 1, 4)
    assert check.match_prefix_length == 3
    assert check.is_full_match  # every comparable position agreed


def test_malformed_bfile(capsys, tmp_path):
    cached = tmp_path / "A000001.bfile.txt"
    argv = ["oeis", "--sequence", "A000001", "--kind", "es", "--upto", "1", "--offline"]
    for body in (b"1 1\nnot numbers here\n", b"\xff\xfe1 1\n"):
        cached.write_bytes(body)
        with pytest.raises(OeisError) as err:
            oeis_crosscheck("A000001", [1], cache_dir=tmp_path, offline=True)
        assert err.value.code == "malformed"
        assert main(argv + ["--cache", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("oeis error: malformed:")
        assert cached.read_bytes() == body  # left where it is


def test_a_value_that_is_not_an_integer_is_malformed():
    with pytest.raises(OeisError, match="^malformed: line 2: '4x'$") as err:
        oeis_mod.parse_bfile("1 1\n2 4x\n")
    assert err.value.code == "malformed"


def test_a_cut_off_response_is_a_network_error(tmp_path, monkeypatch):
    """``_download`` turns an ``http.client`` failure into ``OSError``,
    which ``fetch_bfile`` reports as ``network``; ``urlopen`` is replaced,
    so nothing is fetched."""
    import http.client
    import urllib.request

    def cut_off(url, timeout):
        raise http.client.IncompleteRead(b"1 1\n2")

    monkeypatch.setattr(urllib.request, "urlopen", cut_off)
    with pytest.raises(OSError, match="^bad response: IncompleteRead"):
        oeis_mod._download("https://oeis.org/A123456/b123456.txt")
    with pytest.raises(OeisError) as err:
        oeis_crosscheck("A123456", [1], cache_dir=tmp_path)
    assert err.value.code == "network"
    assert list(tmp_path.iterdir()) == []


def test_invalid_sequence_id(tmp_path):
    for bad in ("000001", "A12", "A0000010x", "B000001"):
        with pytest.raises(OeisError) as err:
            oeis_crosscheck(bad, [1], cache_dir=tmp_path, offline=True)
        assert err.value.code == "invalid-id"


def test_fetch_populates_the_cache(tmp_path, monkeypatch):
    calls = []

    def fake_download(url):
        calls.append(url)
        return "1 1\n2 4\n3 41\n"

    monkeypatch.setattr(oeis_mod, "_download", fake_download)
    check = oeis_crosscheck("A123456", [1, 4, 41], cache_dir=tmp_path)
    assert check.is_full_match
    assert calls == ["https://oeis.org/A123456/b123456.txt"]
    assert (tmp_path / "A123456.bfile.txt").read_text() == "1 1\n2 4\n3 41\n"
    # second call is served from the cache
    again = oeis_crosscheck("A123456", [1, 4], cache_dir=tmp_path)
    assert len(calls) == 1
    assert again.match_prefix_length == 2


def test_network_failure_without_cache(tmp_path, monkeypatch):
    import urllib.error

    def boom(url):
        raise urllib.error.URLError("no route")

    monkeypatch.setattr(oeis_mod, "_download", boom)
    with pytest.raises(OeisError) as err:
        oeis_crosscheck("A123456", [1], cache_dir=tmp_path)
    assert err.value.code == "network"


def test_a_body_that_does_not_parse_is_never_cached(tmp_path, monkeypatch):
    bodies = ["<html><body>502 Bad Gateway</body></html>\n", "1 1\n2 4\n"]
    monkeypatch.setattr(oeis_mod, "_download", lambda url: bodies.pop(0))
    with pytest.raises(OeisError) as err:
        oeis_crosscheck("A123456", [1, 4], cache_dir=tmp_path)
    assert err.value.code == "malformed"
    assert list(tmp_path.iterdir()) == []
    check = oeis_crosscheck("A123456", [1, 4], cache_dir=tmp_path)
    assert check.is_full_match
    assert [f.name for f in tmp_path.iterdir()] == ["A123456.bfile.txt"]
    assert oeis_crosscheck("A123456", [1, 4], cache_dir=tmp_path, offline=True).is_full_match


def test_import_loads_no_http_client():
    """The modules that own the download and the ``oeis`` subcommand load
    no HTTP client until a download runs."""
    probe = (
        "import sys, esfg.oeis, esfg.cli; "
        "print(sorted({'requests', 'urllib.request'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_default_cache_dir_follows_xdg_then_home(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert oeis_mod.default_cache_dir() == tmp_path / "xdg" / "esfg" / "oeis"
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert oeis_mod.default_cache_dir() == tmp_path / "home" / ".cache" / "esfg" / "oeis"
    monkeypatch.setenv("XDG_CACHE_HOME", "")  # set but empty counts as unset
    assert oeis_mod.default_cache_dir() == tmp_path / "home" / ".cache" / "esfg" / "oeis"
