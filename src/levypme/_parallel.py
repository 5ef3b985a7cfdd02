"""Chunk-level worker pool.

The studies map over fixed chunks of paths.  The worker count comes from the
LEVYPME_WORKERS environment variable (default 1 = run in-process).  Results
are always returned in submission order, so the output of a study never
depends on the worker count.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

WORKERS_ENV = "LEVYPME_WORKERS"


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if count < 1:
        raise ValueError(f"{WORKERS_ENV} must be >= 1, got {count}")
    return count


def map_ordered(fn, payloads):
    """Map fn over payloads, in order, optionally across processes."""
    payloads = list(payloads)
    workers = worker_count()
    if workers == 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        return list(pool.map(fn, payloads))
