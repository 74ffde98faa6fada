"""Structure-index persistence.

Building the structure index is the paper's *offline* step (Section
3.2/3.3: generate ~1.6M structures, pack them into 50 tries).  This
module caches the *compiled* index on disk so interactive sessions skip
both regeneration and lowering: the file stores the intern table and
the level plan, each depth's token ids, sentence ids and child counts
(see :mod:`repro.structure.compiled`), and a load checks the plan and
rebuilds a ready-to-search :class:`CompiledStructureIndex` directly from
it.  No node trie is built on either side.

The file format is a compact text file with a short header recording
the generator parameters for cache validation.  Older formats (v1, one
structure per line; v2, one node array per trie) are no longer readable
and simply trigger a rebuild, as does a file whose plan fails the
load's checks.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ReproError
from repro.grammar.generator import StructureGenerator
from repro.structure.compiled import CompiledStructureIndex
from repro.structure.indexer import StructureIndex

_MAGIC = "speakql-structures"
FORMAT_VERSION = 3


class PersistenceError(ReproError):
    """Raised for unreadable or mismatched index files."""


def save_structures(index: StructureIndex, path: str | Path, max_tokens: int) -> None:
    """Write the compiled form of ``index`` to ``path``."""
    lines = [f"{_MAGIC} v{FORMAT_VERSION} max_tokens={max_tokens}"]
    lines.extend(index.compiled().to_lines())
    Path(path).write_text("\n".join(lines) + "\n")


def load_structures(path: str | Path) -> tuple[StructureIndex, int]:
    """Read a structure file; returns (index, max_tokens).

    The returned index wraps the deserialized compiled plan.  Raises
    :class:`PersistenceError` for a file in another format or version,
    or one whose plan fails the load's checks.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise PersistenceError("empty structure file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != _MAGIC:
        raise PersistenceError(f"not a structure file: {lines[0]!r}")
    if header[1] != f"v{FORMAT_VERSION}":
        raise PersistenceError(f"unsupported version: {header[1]}")
    try:
        max_tokens = int(header[2].split("=", 1)[1])
    except (IndexError, ValueError) as error:
        raise PersistenceError(f"bad header: {lines[0]!r}") from error
    try:
        compiled = CompiledStructureIndex.from_lines(lines[1:])
    except (ValueError, OverflowError) as error:
        raise PersistenceError(f"corrupt structure file: {error}") from error
    return StructureIndex.from_compiled(compiled), max_tokens


def load_or_build(
    cache_path: str | Path, max_tokens: int
) -> StructureIndex:
    """Load the index from ``cache_path`` if valid, else build and cache.

    A cached file built with a different ``max_tokens``, in an older
    format, or failing the load's checks is rebuilt.
    """
    path = Path(cache_path)
    if path.exists():
        try:
            index, cached_tokens = load_structures(path)
            if cached_tokens == max_tokens:
                return index
        except PersistenceError:
            pass  # fall through to rebuild
    index = StructureIndex.build(StructureGenerator(max_tokens=max_tokens))
    path.parent.mkdir(parents=True, exist_ok=True)
    save_structures(index, path, max_tokens)
    return index
