"""The one JSON discipline of every cache entry, checkpoint and artifact.

Documents are written canonically (sorted keys, 2-space indent,
trailing LF) and atomically, read tolerantly (a missing or corrupt
file is ``None``; callers validate the shape), namespaced by the
:func:`code_fingerprint` of the code that produced them, and addressed
by the one :func:`content_key` of their identity.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

#: Compact canonical JSON (sorted keys, no whitespace), built once:
#: :func:`content_key` runs once per fleet node.
_COMPACT_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def content_key(doc) -> str:
    """Content address of a JSON-ready identity document.

    The SHA-256 of the document's compact canonical JSON, first 40 hex
    characters.  The sweep and compute cache keys, the app fingerprint
    and the streaming checkpoint name all derive from it.
    """
    text = _COMPACT_JSON.encode(doc)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:40]


def code_fingerprint(package_root: str | Path | None = None) -> str:
    """Hash the code-relevant configuration: every repro source file.

    The fingerprint is a SHA-256 over the sorted ``(relative path,
    content hash)`` pairs of all ``*.py`` files under the ``repro``
    package, so it is independent of checkout location and file-system
    walk order.
    """
    if package_root is None:
        package_root = Path(__file__).resolve().parent
    root = Path(package_root)
    outer = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        relative = path.relative_to(root).as_posix()
        outer.update(f"{relative}\x00{digest}\x00".encode("utf-8"))
    return outer.hexdigest()[:16]


def entry_path(root: str | Path, fingerprint: str, key: str) -> Path:
    """Where a content-addressed cache keeps the entry ``key``.

    ``<root>/<fingerprint>/<key[:2]>/<key>.json``: the fingerprint
    namespaces entries by the code that produced them, and the
    two-character fan-out keeps directories small.  The sweep and
    compute caches share this layout.
    """
    return Path(root) / fingerprint / key[:2] / f"{key}.json"


def read_json(path: str | Path):
    """The document stored at ``path``; ``None`` if missing or corrupt."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def write_json(path: str | Path, payload) -> Path:
    """Atomically write ``payload`` as canonical JSON; returns the path.

    The text goes to a pid-suffixed temporary file beside ``path`` and
    is renamed into place in one step: readers never see a torn
    document, and concurrent writers never share a temporary file.

    Raises:
        OSError: the directory or file cannot be written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    return path


__all__ = ["code_fingerprint", "content_key", "entry_path", "read_json",
           "write_json"]
