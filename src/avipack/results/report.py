"""Plain-text campaign report rendered straight from store columns.

The columnar twin of :func:`avipack.sweep.report.render_sweep_document`:
the ranking table, headroom histogram and axis marginals are computed
from typed columns only — no outcome is unpickled, whatever the
campaign size.  The candidate description comes from the ``label``
column, gathered for the ranked rows only: a packed shard rebuilds
it from those rows' axis columns, so rendering stays zero-unpickle.
"""

from __future__ import annotations

import numpy as np

from .query import axis_marginals, headroom_histogram, ranked_row_ids
from .schema import AXIS_FIELDS
from .store import ResultStore

__all__ = ["render_store_report"]

_RULE = "=" * 72


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_store_report(store: ResultStore, top: int = 10,
                        histogram_bins: int = 12) -> str:
    """Render the campaign analytics document for one result store."""
    live = store.live_mask()
    n_live = int(live.sum())
    compliant = store.column("compliant")
    n_compliant = int((live & compliant).sum())
    kinds = store.column("kind")[live]
    lines = [
        _RULE,
        "CAMPAIGN RESULT STORE".center(72),
        _RULE,
        "",
        f"  Store directory : {store.directory}",
        f"  Shards          : {store.n_shards}"
        + (f"  (quarantined: {len(store.quarantined)})"
           if store.quarantined else ""),
        f"  Rows            : {store.n_rows}"
        f"  (live candidates: {n_live})",
        f"  Compliant       : {n_compliant}",
        f"  Failed/timeout  : {int((kinds != 0).sum())}",
        "",
        f"  TOP {top} BY COST RANK",
        "  " + "-" * 68,
    ]
    ids = ranked_row_ids(store, top)
    labels = store.gather("label", ids)
    cost = store.column("cost_rank")[ids]
    head = store.column("thermal_headroom_c")[ids]
    for position in range(len(ids)):
        label = labels[position].decode("utf-8")
        lines.append(
            f"  {position + 1:>3}. {label:<44} "
            f"cost {cost[position]:7.3f}  "
            f"headroom {head[position]:6.2f} degC")
    if n_compliant > len(ids):
        lines.append(f"  ... and {n_compliant - len(ids)} more compliant")
    if not len(ids):
        lines.append("  (no compliant candidates)")

    counts, edges = headroom_histogram(store, bins=histogram_bins)
    if counts.sum():
        lines += ["", "  THERMAL HEADROOM DISTRIBUTION [degC]",
                  "  " + "-" * 68]
        peak = max(int(counts.max()), 1)
        for position in range(len(counts)):
            bar = "#" * max(1, int(np.ceil(30 * counts[position] / peak))) \
                if counts[position] else ""
            lines.append(
                f"  [{edges[position]:7.2f}, {edges[position + 1]:7.2f})"
                f" {int(counts[position]):>7}  {bar}")

    lines += ["", "  AXIS MARGINALS (best headroom per value)",
              "  " + "-" * 68]
    for field in ("cooling", "form_factor"):
        if field not in AXIS_FIELDS:  # pragma: no cover - schema guard
            continue
        lines.append(f"  {field}:")
        for marginal in axis_marginals(store, field):
            best = (f"{marginal.best_headroom_c:6.2f} degC"
                    if marginal.n_compliant else "   --  ")
            lines.append(
                f"    {_format_value(marginal.value):<28} "
                f"n={marginal.n:<7} compliant {marginal.n_compliant:<7} "
                f"({marginal.compliance_rate:5.1%})  best {best}")
    lines += ["", _RULE]
    return "\n".join(lines)
