"""OEIS b-file client with a verbatim local cache.

Fetches ``https://oeis.org/<ID>/b<digits>.txt``, stores the body exactly
as received once it parses (sequences only ever grow, so there is no
expiry), and compares a locally computed prefix against the published
terms.  A mismatch is reported, never raised: the caller decides what a
disagreement means.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

_ID_PATTERN = re.compile(r"\AA\d{6,7}\Z")


class OeisError(ValueError):
    """Client failure; ``code`` is ``invalid-id``, ``cache-miss``,
    ``network`` or ``malformed``."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


@dataclass(frozen=True)
class OeisCheck:
    sequence_id: str
    fetched_terms: tuple[int, ...]
    local_terms: tuple[int, ...]

    @property
    def match_prefix_length(self) -> int:
        """How many leading positions agree."""
        matched = 0
        for ours, theirs in zip(self.local_terms, self.fetched_terms):
            if ours != theirs:
                break
            matched += 1
        return matched

    @property
    def is_full_match(self) -> bool:
        """Every comparable position agreed."""
        return self.match_prefix_length == min(
            len(self.fetched_terms), len(self.local_terms)
        )


def default_cache_dir() -> Path:
    """``esfg/oeis`` under ``$XDG_CACHE_HOME``, or under ``~/.cache``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "esfg" / "oeis"


def bfile_url(sequence_id: str) -> str:
    return f"https://oeis.org/{sequence_id}/b{sequence_id[1:]}.txt"


def _download(url: str) -> str:
    """The body at ``url``; every failure is raised as an ``OSError``."""
    import http.client
    import urllib.request  # here, so that ``import esfg`` does not pay for it

    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.read().decode("utf-8", errors="replace")
    except http.client.HTTPException as exc:  # a cut-off or garbled response
        raise OSError(f"bad response: {exc!r}") from exc


def parse_bfile(text: str) -> tuple[int, ...]:
    """Values from ``index value`` lines; comments and blanks skipped."""
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise OeisError("malformed", f"line {lineno}: expected 'index value'")
        try:
            values.append(int(parts[1]))
        except ValueError as exc:
            raise OeisError("malformed", f"line {lineno}: {parts[1]!r}") from exc
    return tuple(values)


def fetch_bfile(
    sequence_id: str, cache_dir: Path | str | None = None, *, offline: bool = False
) -> tuple[int, ...]:
    """The sequence's published terms.

    Cache first: a hit is used verbatim (one that is not UTF-8 is
    ``malformed`` and stays where it is); otherwise the b-file is fetched,
    parsed, and only then cached by an atomic rename, so a body that does
    not parse is never kept (``offline`` instead requires the hit).
    """
    if not _ID_PATTERN.match(sequence_id):
        raise OeisError("invalid-id", f"{sequence_id!r} is not an A-number")
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cache_file = directory / f"{sequence_id}.bfile.txt"

    if cache_file.exists():
        try:
            text = cache_file.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise OeisError("malformed", f"{cache_file} is not UTF-8: {exc}") from exc
        return parse_bfile(text)
    if offline:
        raise OeisError("cache-miss", f"no cached b-file for {sequence_id}")
    try:
        text = _download(bfile_url(sequence_id))
    except OSError as exc:
        raise OeisError("network", f"fetching {sequence_id}: {exc}") from exc
    fetched = parse_bfile(text)
    directory.mkdir(parents=True, exist_ok=True)
    partial = cache_file.with_name(f"{cache_file.name}.{os.getpid()}.tmp")
    partial.write_text(text, encoding="utf-8")
    os.replace(partial, cache_file)
    return fetched


def oeis_crosscheck(
    sequence_id: str,
    local_terms: Sequence[int],
    cache_dir: Path | str | None = None,
    *,
    offline: bool = False,
) -> OeisCheck:
    """Compare ``local_terms`` against the sequence's published values, as
    ``fetch_bfile`` gets them.  The result reports the longest matching
    prefix; disagreement is data, not an error."""
    fetched = fetch_bfile(sequence_id, cache_dir, offline=offline)
    return OeisCheck(sequence_id, fetched, tuple(int(v) for v in local_terms))
