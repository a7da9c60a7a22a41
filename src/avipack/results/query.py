"""Zero-unpickle analytics over a :class:`~avipack.results.store.ResultStore`.

Every query here runs on the store's typed columns — ranking, histograms
and per-axis marginals over a million-candidate campaign touch typed
float and byte arrays only, never a pickled outcome.

The ranking contract matches :meth:`avipack.sweep.report.SweepReport.ranked`
exactly: compliant candidates ordered by ``(cost_rank, -thermal_headroom_c,
index)``.  ``thermal_headroom_c`` is stored at ingest with the same float64
subtraction the dataclass property performs, so the sort keys — and
therefore the ranking — are byte-identical to the in-memory baseline.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Optional, Tuple

import numpy as np

from ..errors import InputError
from .schema import AXIS_FIELDS, ROW_DTYPE
from .store import ResultStore

__all__ = [
    "AxisMarginal",
    "axis_marginals",
    "headroom_histogram",
    "ranked_row_ids",
    "ranking_signature",
]

#: Above this boundary-pool size the coarse ``np.partition`` cut is
#: refined on the headroom key before the exact lexsort, keeping the
#: final sort bounded even when one ``cost_rank`` value carries most of
#: the campaign.
_REFINE_THRESHOLD = 4096


def _live_compliant_ids(store: ResultStore) -> np.ndarray:
    """Global row ids of live (latest-per-fingerprint) compliant rows."""
    return np.flatnonzero(store.live_mask()
                          & store.column("compliant"))


def ranked_row_ids(store: ResultStore,
                   k: Optional[int] = None) -> np.ndarray:
    """Global row ids of the top-``k`` compliant candidates, in rank order.

    ``k=None`` returns the full ranking.  For small ``k`` against a
    large campaign the candidate pool is first cut with
    :func:`np.partition` on ``cost_rank`` (O(n)), then the bounded pool
    is sorted exactly — the selection itself never sorts all n rows.
    """
    if k is not None and k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    ids = _live_compliant_ids(store)
    m = len(ids)
    if m == 0:
        return ids
    cost = store.column("cost_rank")[ids]
    head = store.column("thermal_headroom_c")[ids]
    index = store.column("index")[ids]

    if k is None or k >= m:
        order = np.lexsort((index, -head, cost))
        return ids[order]

    # Coarse cut: everything with cost_rank beyond the k-th smallest
    # value cannot be in the top k.
    kth_cost = np.partition(cost, k - 1)[k - 1]
    pool = np.flatnonzero(cost <= kth_cost)
    if len(pool) > max(k, _REFINE_THRESHOLD):
        # Tie-heavy boundary: keep all strictly-better rows, then cut
        # the boundary class on the secondary key (headroom, larger is
        # better).  Ties on the cut value stay in (superset is fine —
        # the exact sort below settles them).
        strict = np.flatnonzero(cost < kth_cost)
        boundary = np.flatnonzero(cost == kth_cost)
        need = k - len(strict)
        neg_head = -head[boundary]
        cut = np.partition(neg_head, need - 1)[need - 1]
        boundary = boundary[neg_head <= cut]
        pool = np.concatenate([strict, boundary])
    order = np.lexsort((index[pool], -head[pool], cost[pool]))
    return ids[pool[order[:k]]]


def ranking_signature(store: ResultStore,
                      k: Optional[int] = None
                      ) -> List[Tuple[str, float, float]]:
    """``(fingerprint, cost_rank, worst_board_c)`` per ranked candidate.

    The parity artifact: the same triple computed from in-memory
    outcomes must match element for element (floats bit-identical).
    """
    ids = ranked_row_ids(store, k)
    fps = store.gather("fingerprint", ids)
    cost = store.column("cost_rank")[ids]
    worst = store.column("worst_board_c")[ids]
    return [(fps[i].decode("ascii"), float(cost[i]), float(worst[i]))
            for i in range(len(ids))]


def headroom_histogram(store: ResultStore, bins: int = 20,
                       bounds: Optional[Tuple[float, float]] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of thermal headroom [degC] over live compliant rows.

    Returns ``(counts, edges)`` as :func:`np.histogram` does; ``bounds``
    pins the range (else the data's min/max is used).
    """
    if bins < 1:
        raise InputError(f"bins must be >= 1, got {bins}")
    ids = _live_compliant_ids(store)
    head = store.column("thermal_headroom_c")[ids]
    if len(head) == 0:
        edges = np.linspace(*(bounds or (0.0, 1.0)), bins + 1)
        return np.zeros(bins, dtype=np.int64), edges
    return np.histogram(head, bins=bins, range=bounds)


@dataclasses.dataclass(frozen=True)
class AxisMarginal:
    """Campaign statistics for one value of one candidate axis."""

    #: Axis value (decoded to its Python representation).
    value: Any
    #: Live rows carrying this value (compliant or not).
    n: int
    #: Live compliant rows carrying this value.
    n_compliant: int
    #: Best (largest) thermal headroom [degC] among them (NaN if none).
    best_headroom_c: float
    #: Mean thermal headroom [degC] among them (NaN if none).
    mean_headroom_c: float

    @property
    def compliance_rate(self) -> float:
        return self.n_compliant / self.n if self.n else 0.0


def _decode_axis(values: np.ndarray) -> List[Any]:
    if values.dtype.kind == "S":
        return [value.decode("utf-8") for value in values]
    if values.dtype.kind == "b":
        return [bool(value) for value in values]
    if values.dtype.kind == "i":
        return [int(value) for value in values]
    return [float(value) for value in values]


def _axis_codes(store: ResultStore,
                field: str) -> Tuple[np.ndarray, np.ndarray]:
    """Unique values of an axis column plus per-row integer codes.

    Computed shard by shard: axis columns carry a
    handful of distinct values each, so the per-shard unique sets are
    tiny and the full-campaign column is never concatenated or sorted.
    """
    shard_uniques = []
    shard_codes = []
    for values in store.iter_column(field):
        u, codes = np.unique(values, return_inverse=True)
        shard_uniques.append(u)
        shard_codes.append(codes)
    if not shard_uniques:
        return (np.empty(0, dtype=ROW_DTYPE[field]),
                np.empty(0, dtype=np.int64))
    uniques = np.unique(np.concatenate(shard_uniques))
    inverse = np.empty(store.n_rows, dtype=np.int64)
    base = 0
    for u, codes in zip(shard_uniques, shard_codes):
        remap = np.searchsorted(uniques, u)
        inverse[base:base + len(codes)] = remap[codes]
        base += len(codes)
    return uniques, inverse


def axis_marginals(store: ResultStore,
                   field: str) -> List[AxisMarginal]:
    """Per-value marginals of one candidate axis, best headroom first.

    ``field`` must be one of :data:`~avipack.results.schema.AXIS_FIELDS`.
    Counts cover every live row; headroom statistics cover the compliant
    subset (failures carry NaN headroom by construction).
    """
    if field not in AXIS_FIELDS:
        raise InputError(
            f"unknown axis {field!r}; known: {', '.join(AXIS_FIELDS)}")
    live = store.live_mask()
    # Factor the axis column through its unique values once, then group
    # by the (small) integer codes — the wide string column itself is
    # never concatenated or copied per row mask.
    uniques, inverse = _axis_codes(store, field)
    n_values = len(uniques)
    compliant = live & store.column("compliant")
    counts = np.bincount(inverse[live], minlength=n_values)
    compliant_counts = np.bincount(inverse[compliant],
                                   minlength=n_values)
    best = np.full(n_values, -np.inf)
    sums = np.zeros(n_values)
    if compliant.any():
        groups = inverse[compliant]
        head = store.column("thermal_headroom_c")[compliant]
        np.maximum.at(best, groups, head)
        np.add.at(sums, groups, head)
    decoded = _decode_axis(uniques)
    marginals = []
    for position in range(n_values):
        if not counts[position]:
            # The value exists only in superseded (non-live) rows.
            continue
        n_comp = int(compliant_counts[position])
        marginals.append(AxisMarginal(
            value=decoded[position],
            n=int(counts[position]),
            n_compliant=n_comp,
            best_headroom_c=(float(best[position]) if n_comp
                             else float("nan")),
            mean_headroom_c=(float(sums[position]) / n_comp if n_comp
                             else float("nan"))))
    marginals.sort(key=lambda item: (
        -(item.best_headroom_c
          if item.n_compliant else -np.inf),
        str(item.value)))
    return marginals
