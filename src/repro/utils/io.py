"""Artifact I/O helpers: ``numpy.savez`` archives, atomic writes, file hashes."""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

# With the pid, this makes every concurrent writer's temp name unique:
# two threads or processes writing one target never share a temp file.
_TMP_COUNTER = itertools.count()


def ensure_dir(path: "str | os.PathLike[str]") -> Path:
    """Create ``path`` (and parents) if needed and return it as ``Path``."""
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def save_npz_dict(path: "str | os.PathLike[str]", data: Mapping[str, Any]) -> Path:
    """Save a flat mapping of arrays/scalars to a compressed ``.npz``.

    Non-array values are stored via a JSON side-channel under the
    reserved key ``__meta__`` so that round-tripping preserves python
    scalars, strings, lists and dicts.
    """
    path = Path(path)
    ensure_dir(path.parent)
    arrays: dict[str, np.ndarray] = {}
    meta: dict[str, Any] = {}
    for key, value in data.items():
        if key == "__meta__":
            raise ValueError("'__meta__' is a reserved key")
        if isinstance(value, np.ndarray):
            arrays[key] = value
        else:
            meta[key] = value
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    return path


def load_npz_dict(path: "str | os.PathLike[str]") -> dict[str, Any]:
    """Inverse of :func:`save_npz_dict`."""
    out: dict[str, Any] = {}
    with np.load(path, allow_pickle=False) as archive:
        for key in archive.files:
            if key == "__meta__":
                meta = json.loads(bytes(archive[key].tobytes()).decode("utf-8"))
                out.update(meta)
            else:
                out[key] = archive[key]
    return out


def temp_path(path: "str | os.PathLike[str]") -> Path:
    """A unique hidden sibling of ``path`` to write before publishing.

    It ends in ``path.name``, so ``numpy.savez`` (which appends ``.npz``
    to other names) writes exactly the file the rename publishes.
    """
    path = Path(path)
    return path.with_name(f".tmp-{os.getpid()}-{next(_TMP_COUNTER)}-{path.name}")


def atomic_write(path: "str | os.PathLike[str]", write: Callable[[Path], object]) -> None:
    """Publish a file atomically: ``write(tmp)``, then ``os.replace``.

    A reader never sees a half-written ``path``, and a failed write
    leaves no temp file behind.
    """
    tmp = temp_path(path)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def sha256_file(path: "str | os.PathLike[str]") -> str:
    """Hex sha256 of a file's bytes, read in 1 MiB chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
