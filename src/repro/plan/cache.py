"""Content-addressed on-disk cache of profiling measurements.

Algorithm-1 profiling is by far the most expensive phase of the
toolchain — every PIM-candidate layer at 11 split ratios plus every
pipeline candidate, each a full simulator evaluation.  The cache keys
each profiled region by a stable structural fingerprint (see
:mod:`repro.plan.fingerprint`) under the toolchain's configuration
fingerprint, so repeated ``profile()`` calls — and the benchmark suite,
which profiles the same models dozens of times — replay measurements
from disk instead of re-running the simulators.

Layout::

    <cache_dir>/objects/<config_fp[:16]>/<region_fp>.json
    <cache_dir>/last_run.json

Grouping by configuration fingerprint makes invalidation exact: a
changed device config, mechanism, or optimization flag lands in a fresh
subdirectory, and :meth:`ProfileCache.invalidate` removes a stale
configuration's entries wholesale.

Concurrency: several writers may share one cache directory — threads
of one process (the serving layer compiles models lazily from its
worker threads, each compiler with its own cache on the same
directory) and separate processes.  Every store writes a temp file
named by its process and thread, then ``os.replace``s it over the
entry, so readers never observe partial entries and concurrent stores
of one key never collide: the last replace wins with a whole entry.

Entries are lists of measurement dicts (``RegionMeasurement.to_dict``
form), kept as plain data so this module needs nothing from
:mod:`repro.search`.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

logger = logging.getLogger(__name__)


class ProfileCache:
    """Memoizes region measurements on disk, content-addressed."""

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.root = Path(cache_dir)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def _config_dir(self, config_fingerprint: str) -> Path:
        return self.objects / config_fingerprint[:16]

    def _entry_path(self, config_fingerprint: str, region_fingerprint: str) -> Path:
        return self._config_dir(config_fingerprint) / f"{region_fingerprint}.json"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(self, config_fingerprint: str,
               region_fingerprint: str) -> Optional[List[Dict[str, Any]]]:
        """Cached measurement dicts for a region, or None on a miss.

        An empty list is a valid (negative) result — e.g. a pipeline
        candidate that proved unsplittable — and still counts as a hit.
        Corrupt entries are dropped and reported as misses.
        """
        path = self._entry_path(config_fingerprint, region_fingerprint)
        if not path.exists():
            self.misses += 1
            return None
        try:
            data = json.loads(path.read_text())
            entries = data["entries"]
        except (json.JSONDecodeError, KeyError, TypeError):
            logger.warning("dropping corrupt profile-cache entry %s", path)
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return entries

    def store(self, config_fingerprint: str, region_fingerprint: str,
              entries: List[Dict[str, Any]],
              meta: Optional[Dict[str, Any]] = None) -> None:
        """Persist the measurements of one profiled region."""
        path = self._entry_path(config_fingerprint, region_fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"entries": entries, "meta": meta or {}}
        # Temp name per process and thread: two threads or processes
        # storing the same entry must never share one temp file.
        tmp = path.with_suffix(
            f".{os.getpid()}.{threading.get_ident()}.tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)  # atomic: readers never see partials

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, config_fingerprint: Optional[str] = None) -> int:
        """Remove cached entries; returns the number removed.

        With a fingerprint, only that configuration's entries go; with
        none, the whole cache is cleared.
        """
        dirs = ([self._config_dir(config_fingerprint)]
                if config_fingerprint is not None
                else [d for d in self.objects.iterdir() if d.is_dir()])
        removed = 0
        for d in dirs:
            if not d.exists():
                continue
            removed += sum(1 for _ in d.glob("*.json"))
            shutil.rmtree(d)
        return removed

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """Entries currently on disk (all configurations)."""
        return sum(1 for _ in self.objects.glob("*/*.json"))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        return {
            "entries": self.num_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (called at the start of a profile
        run so ``last_run.json`` reflects exactly one run)."""
        self.hits = 0
        self.misses = 0

    def record_run(self, config_fingerprint: str) -> None:
        """Persist the counters of the run that just finished, so
        ``pimflow stat`` can report cache effectiveness afterwards."""
        payload = dict(self.stats())
        payload["config_fingerprint"] = config_fingerprint
        (self.root / "last_run.json").write_text(json.dumps(payload))

    def last_run(self) -> Optional[Dict[str, Any]]:
        """Statistics of the most recent recorded profile run, if any."""
        path = self.root / "last_run.json"
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError:
            return None


class MemoryProfileCache(ProfileCache):
    """Dict-backed profile cache: same addressing, zero disk I/O.

    The default measurement memo of a :class:`~repro.pimflow.Compiler`
    when no ``cache_dir`` is configured: repeat ``profile()``/
    ``compile()`` calls on the same compiler replay measurements
    instead of re-running the transform passes and simulators, and the
    process leaves nothing behind on exit.  Entries are stored as the
    same plain measurement dicts the disk cache keeps, so a profile
    replayed from either backend is byte-identical to a measured one.
    """

    def __init__(self) -> None:
        # Deliberately skip ProfileCache.__init__ — no directories.
        self._entries: Dict[tuple, List[Dict[str, Any]]] = {}
        self._last_run: Optional[Dict[str, Any]] = None
        self.hits = 0
        self.misses = 0

    def lookup(self, config_fingerprint: str,
               region_fingerprint: str) -> Optional[List[Dict[str, Any]]]:
        entries = self._entries.get((config_fingerprint, region_fingerprint))
        if entries is None:
            self.misses += 1
            return None
        self.hits += 1
        return [dict(e) for e in entries]

    def store(self, config_fingerprint: str, region_fingerprint: str,
              entries: List[Dict[str, Any]],
              meta: Optional[Dict[str, Any]] = None) -> None:
        self._entries[(config_fingerprint, region_fingerprint)] = [
            dict(e) for e in entries]

    def invalidate(self, config_fingerprint: Optional[str] = None) -> int:
        if config_fingerprint is None:
            removed = len(self._entries)
            self._entries.clear()
            return removed
        stale = [k for k in self._entries if k[0] == config_fingerprint]
        for k in stale:
            del self._entries[k]
        return len(stale)

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    def record_run(self, config_fingerprint: str) -> None:
        payload = dict(self.stats())
        payload["config_fingerprint"] = config_fingerprint
        self._last_run = payload

    def last_run(self) -> Optional[Dict[str, Any]]:
        return self._last_run
