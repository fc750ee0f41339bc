"""Deterministic intra-operator GEMM sharding: row panels + policy.

The operator-parallel scheduler (see :mod:`repro.runtime.compiled`)
historically refused to split GEMM-backed steps — conv/matmul, the
dominant cost in every conv net — because a carelessly split matmul is
*not* byte-identical to the serial call.  This module provides the
pieces that make an intra-op split safe:

* :class:`ShardPolicy` — the single knob surface for every sharding
  decision the compiled executor makes (batch-sharding of elementwise
  pipelines *and* row-panel GEMM sharding), overridable per executable,
  via :class:`~repro.pimflow.PimFlowConfig`, or the
  ``REPRO_GEMM_SHARDS`` environment variable.
* :func:`plan_row_panels` — split ``C = A @ B`` into contiguous
  row panels ``C[m0:m1] = A[m0:m1] @ B`` subject to the safety floors
  below.
* :func:`conv_row_segments` — map an im2col row panel back to
  per-image output-row boxes, so each panel sub-step can declare a
  disjoint write rectangle to the hazard-edge builder.
* :func:`panel_matmul` — the serial reference kernel the property
  tests pin the executor against.

Why M-panels are bit-safe (and what the floors guard)
-----------------------------------------------------
Panels split only the M dimension: every output row is still produced
by exactly one ``np.matmul`` call accumulating serially over the full
K extent, so no floating-point summation order ever changes.  BLAS's
internal K-blocking for a row depends only on (K, N) — which panels
leave untouched — with three empirically confirmed exceptions, each of
which the planner refuses to create:

* ``M == 1`` panels dispatch to GEMV, whose accumulation differs from
  the GEMM kernel's (``min_panel_rows`` floor).
* Tiny panels (``M*K*N`` at or below ~1e6 on OpenBLAS) take a
  small-matrix kernel whose K-blocking differs from the normal path
  (``min_panel_elems`` floor, defaulting to 2x that threshold).
* ``N == 1`` products are GEMV-shaped at any size (never sharded).

Within those floors, an M-split is byte-identical to the serial call
even when BLAS itself is threaded: threaded GEMM partitions output
rows/columns, never the K reduction, so each output element's
accumulation order is invariant under our panelling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

#: Panels below this many M*K*N multiply-accumulates may hit BLAS's
#: small-matrix kernels, whose bits differ from the normal GEMM path.
#: The observed OpenBLAS cutover is ~1e6; the default keeps 2x margin.
DEFAULT_MIN_PANEL_ELEMS = 2_000_000

#: Minimum output rows per panel: M=1 panels dispatch to GEMV, and a
#: few rows of work never amortize a sub-step's dispatch overhead.
DEFAULT_MIN_PANEL_ROWS = 16

#: Batch size below which batch-shardable elementwise steps stay
#: whole: slicing a tiny batch buys no parallelism and costs closure
#: overhead.  (Promoted from the old ``compiled.SHARD_MIN_BATCH``.)
DEFAULT_SHARD_MIN_BATCH = 4


@dataclass(frozen=True)
class ShardPolicy:
    """Every intra-run sharding decision, in one tunable object.

    ``gemm_shards`` controls row-panel GEMM sharding:

    * ``None`` (default) — follow the executable's worker width, so
      panels exist exactly when a pool can overlap them;
    * ``0`` — one panel per physical core;
    * ``1`` — GEMM sharding off (batch-sharding unaffected);
    * ``N > 1`` — force up to N panels even at worker width 1, where
      the serial loop runs them in order (useful for determinism
      testing: same panels, no pool).

    The floors are safety bounds, not tuning hints — see the module
    docstring for the bit-identity argument behind each.
    """

    gemm_shards: Optional[int] = None
    min_panel_elems: int = DEFAULT_MIN_PANEL_ELEMS
    min_panel_rows: int = DEFAULT_MIN_PANEL_ROWS
    shard_min_batch: int = DEFAULT_SHARD_MIN_BATCH

    @staticmethod
    def from_env() -> "ShardPolicy":
        """Default policy, with ``REPRO_GEMM_SHARDS`` applied if set.

        An unparseable or negative value is ignored — like
        ``REPRO_HOST_WORKERS``, a broken env var never aborts an
        inference; ``--gemm-shards`` is the validated surface.
        """
        raw = os.environ.get("REPRO_GEMM_SHARDS", "").strip()
        if not raw:
            return ShardPolicy()
        try:
            shards = int(raw)
        except ValueError:
            return ShardPolicy()
        if shards < 0:
            return ShardPolicy()
        return ShardPolicy(gemm_shards=shards)

    def with_gemm_shards(self, shards: Optional[int]) -> "ShardPolicy":
        """Copy with ``gemm_shards`` replaced (None = leave as-is)."""
        if shards is None:
            return self
        return replace(self, gemm_shards=int(shards))

    def resolve_gemm_width(self, workers: int) -> int:
        """Max GEMM panels per step for an executable of ``workers``."""
        if self.gemm_shards is None:
            return max(1, int(workers))
        if self.gemm_shards == 0:
            return max(1, os.cpu_count() or 1)
        return max(1, int(self.gemm_shards))


def shard_ranges(n: int, shards: int) -> List[Tuple[int, int]]:
    """``shards`` contiguous, non-empty [start, stop) slices of 0..n."""
    if shards <= 1:
        return [(0, n)]
    base, extra = divmod(n, shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for s in range(shards):
        size = base + (1 if s < extra else 0)
        if size:
            ranges.append((start, start + size))
        start += size
    return ranges


def plan_row_panels(m: int, k: int, n: int, width: int,
                    policy: Optional[ShardPolicy] = None,
                    align: int = 1) -> List[Tuple[int, int]]:
    """Contiguous [m0, m1) row panels for ``C[m,n] = A[m,k] @ B[k,n]``.

    Returns at most ``width`` panels covering exactly ``0..m`` in
    order, every boundary a multiple of ``align`` (the im2col output
    row width, so conv panels map to whole output rows and their write
    boxes stay rectangular).  Collapses to a single panel whenever a
    split cannot be byte-safe or profitable under ``policy``:
    ``N < 2``, panels that would drop below the row floor, or panels
    below the min-FLOPs floor.
    """
    policy = policy or ShardPolicy()
    if m <= 0:
        return [(0, m)]
    if width <= 1 or n < 2:
        return [(0, m)]
    if align <= 0 or m % align:
        align = 1
    units = m // align
    shards = min(int(width), units)
    while shards > 1:
        # The smallest panel an even unit split produces; every floor
        # must hold for it, or for no panel at all.
        rows = (units // shards) * align
        if rows >= policy.min_panel_rows \
                and rows * k * n >= policy.min_panel_elems:
            break
        shards -= 1
    if shards <= 1:
        return [(0, m)]
    return [(u0 * align, u1 * align)
            for u0, u1 in shard_ranges(units, shards)]


def conv_row_segments(m0: int, m1: int, oh: int,
                      ow: int) -> List[Tuple[int, int, int]]:
    """Per-image output-row spans of an im2col row panel.

    Rows of the (n*oh*ow, K) im2col matrix enumerate output pixels in
    (image, y, x) order; a panel aligned to ``ow`` covers whole output
    rows.  Returns ``(image, y0, y1)`` segments — the disjoint write
    rectangles the panel's sub-step declares to the hazard builder.
    """
    r0, r1 = m0 // ow, -(-m1 // ow)
    segments: List[Tuple[int, int, int]] = []
    r = r0
    while r < r1:
        img, y = divmod(r, oh)
        y_stop = min(oh, y + (r1 - r))
        segments.append((img, y, y_stop))
        r += y_stop - y
    return segments


def panel_matmul(a: np.ndarray, b: np.ndarray,
                 out: Optional[np.ndarray] = None, *,
                 width: int,
                 policy: Optional[ShardPolicy] = None,
                 align: int = 1) -> np.ndarray:
    """Reference row-panel matmul: the exact per-panel kernel calls the
    compiled executor issues, run serially in panel order.

    The executor overlaps these panels on the host pool; since each
    writes a disjoint row slice of ``out``, execution order cannot
    affect the bytes, and this serial reference is the oracle the
    property tests compare against.
    """
    m, k = a.shape
    n = b.shape[1]
    if out is None:
        out = np.empty((m, n), dtype=np.result_type(a, b))
    for m0, m1 in plan_row_panels(m, k, n, width, policy, align=align):
        np.matmul(a[m0:m1], b, out=out[m0:m1])
    return out
