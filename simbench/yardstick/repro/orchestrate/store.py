"""Disk-backed result cache keyed by job content hash.

Layout on disk (one JSON file per completed job, sharded by hash
prefix so directories stay small even for million-point campaigns)::

    <root>/
      <hh>/                     # first two hex digits of the hash
        <full-hash>.json        # {"version", "job", "result", "created"}

A file is written atomically (temp file + ``os.replace``), so a killed
campaign never leaves a truncated entry behind; a corrupt or
version-mismatched entry reads as a miss, not an error.  Checkpoint and
resume fall out of the keying: re-running a campaign looks every job up
by hash, skips the hits and executes only the remainder.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time
from typing import Iterator, Optional, Union

from repro.orchestrate.job import CACHE_VERSION, Job, JobResult

__all__ = ["ResultStore"]

PathLike = Union[str, pathlib.Path]


class ResultStore:
    """Content-addressed store of :class:`JobResult` values."""

    def __init__(self, root: PathLike):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, job: Job) -> Optional[JobResult]:
        """The cached result for *job*, or None on miss/corruption."""
        path = self.path_for(job.content_hash())
        try:
            with path.open() as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if entry.get("version") != CACHE_VERSION:
            return None
        try:
            result = JobResult.from_dict(entry["result"])
        except (KeyError, TypeError):
            return None
        result.cached = True
        return result

    def put(self, job: Job, result: JobResult) -> pathlib.Path:
        """Persist *result* under *job*'s content hash (atomically)."""
        path = self.path_for(job.content_hash())
        entry = {
            "version": CACHE_VERSION,
            "created": time.time(),
            "job": job.to_dict(),
            "result": result.to_dict(),
        }
        # A concurrent invalidate()/prune() may rmdir the shard between
        # our mkdir and mkstemp (FileNotFoundError), or between
        # Path.mkdir's internal os.mkdir collision and its is_dir()
        # re-check (surfacing as FileExistsError despite exist_ok=True);
        # recreate and retry either way.
        for _ in range(20):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
                break
            except (FileNotFoundError, FileExistsError):
                continue
        else:
            raise OSError(f"cannot create temp file in {path.parent}")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def read_entry(self, key: str) -> Optional[dict]:
        """The raw on-disk entry for *key* (hash), or None on miss.

        Unlike :meth:`get` this returns the whole record — job spec,
        result and creation time — which is what the service layer's
        ``GET /v1/results/{hash}`` endpoint hands back verbatim.
        """
        try:
            with self.path_for(key).open() as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        return entry if entry.get("version") == CACHE_VERSION else None

    def invalidate(self, job: Job) -> bool:
        """Drop *job*'s cached entry; True if one existed."""
        path = self.path_for(job.content_hash())
        try:
            path.unlink()
        except OSError:
            return False
        self._rmdir_if_empty(path.parent)
        return True

    def keys(self) -> Iterator[str]:
        for path in sorted(self.root.glob("??/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Remove every entry (and writer debris); returns entries removed."""
        removed = 0
        for path in self.root.glob("??/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._sweep_debris()
        return removed

    def prune(self, max_age_s: float, now: Optional[float] = None) -> int:
        """Drop entries older than *max_age_s* seconds; returns entries removed.

        Age comes from the entry's ``created`` stamp (file mtime for
        unreadable entries, so corruption ages out too).  Orphaned
        ``*.tmp`` files from crashed writers past the cutoff and
        emptied shard directories are swept as well — this is the GC
        the server runs periodically on its result store.
        """
        cutoff = (time.time() if now is None else now) - max_age_s
        removed = 0
        for path in list(self.root.glob("??/*.json")):
            created: Optional[float] = None
            try:
                with path.open() as fh:
                    created = json.load(fh).get("created")
            except (OSError, json.JSONDecodeError):
                created = None
            if not isinstance(created, (int, float)):
                try:
                    created = path.stat().st_mtime
                except OSError:
                    continue
            if created <= cutoff:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        self._sweep_debris(tmp_cutoff=cutoff)
        return removed

    # -- housekeeping ------------------------------------------------------

    def _sweep_debris(self, tmp_cutoff: Optional[float] = None) -> None:
        """Remove orphaned temp files (all, or older than a cutoff) and
        then any shard directory left empty."""
        for tmp in list(self.root.glob("??/*.tmp")):
            try:
                if tmp_cutoff is None or tmp.stat().st_mtime <= tmp_cutoff:
                    tmp.unlink()
            except OSError:
                pass
        for shard in list(self.root.glob("??")):
            if shard.is_dir():
                self._rmdir_if_empty(shard)

    @staticmethod
    def _rmdir_if_empty(shard: pathlib.Path) -> None:
        try:
            shard.rmdir()  # refuses (OSError) unless empty
        except OSError:
            pass
