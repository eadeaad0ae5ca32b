"""Rendering of report rows to Markdown and CSV.

Percentages are rounded half-up to two decimals from the exact counts
(25 -> "25", 4/96 -> "4.17"); the CSV keeps the raw tallies alongside so
no precision is lost in machine output.
"""

from __future__ import annotations

import csv
import io
from decimal import ROUND_HALF_UP, Decimal
from typing import Sequence

from .evaluation import GroupCount, ReportRow, inconsistent_drop


def round_percent(count: int, total: int) -> Decimal:
    """Exact 100*count/total rounded half-up to two decimals."""
    if total == 0:
        raise ZeroDivisionError("cannot render a percentage over zero clusters")
    return (Decimal(100 * count) / Decimal(total)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)


def format_percent(count: int, total: int) -> str:
    """Two-decimal half-up rounding with trailing zeros trimmed; "-" when empty."""
    if total == 0:
        return "-"
    text = str(round_percent(count, total))
    return text.rstrip("0").rstrip(".") if "." in text else text


# The headline columns: Markdown heading, CSV name, and the group and verdict
# whose share of the group each one shows.
_HEADLINES = (
    ("% incomplete edges", "pct_incomplete_edges", "edges", "incomplete"),
    ("% inconsistent edges", "pct_inconsistent_edges", "edges", "inconsistent"),
    ("% inconsistent paths", "pct_inconsistent_paths", "paths", "inconsistent"),
    ("% inconsistent properties", "pct_inconsistent_property", "property", "inconsistent"),
    ("% all inconsistent", "pct_all_inconsistent", "all", "inconsistent"),
)


def _headline_cells(row: ReportRow, baselines: dict[str, ReportRow] | None) -> list[str]:
    """The headline percentages of `row` and, when `baselines` is given, its
    improvement over its baseline: the one with its backend id, or the lone
    baseline when there is one ("-" for a backend without one)."""
    cells = []
    for _, _, group, verdict in _HEADLINES:
        count: GroupCount = getattr(row, group)
        cells.append(format_percent(getattr(count, verdict), count.total))
    if baselines is not None:
        base = next(iter(baselines.values())) if len(baselines) == 1 else baselines.get(row.backend_id)
        cells.append("-" if base is None else format_percent(inconsistent_drop(base, row), base.all.total))
    return cells


def render_markdown(
    rows: Sequence[ReportRow],
    *,
    dataset_fingerprint: str | None = None,
    baselines: dict[str, ReportRow] | None = None,
    title: str = "Consistency report",
) -> str:
    """One table row per backend, mirroring the evaluation summary layout.

    When `baselines` maps backend ids to their un-augmented rows, an
    improvement column is appended. Each row is paired with the baseline of
    its backend id, except that a lone baseline pairs with every row (a
    noisy baseline replayed against the perfect oracle). A baseline from
    another dataset raises DenominatorMismatch, as `improvement` does.
    """
    lines = [f"# {title}", ""]
    if dataset_fingerprint:
        lines += [f"Dataset fingerprint: `{dataset_fingerprint}`", ""]
    if rows:
        denoms = rows[0].denominators
        lines += [
            f"Clusters: {denoms[3]} total = {denoms[0]} edges + {denoms[1]} paths "
            f"+ {denoms[2]} property inheritance.",
            "",
        ]
    headings = ["backend", *(heading for heading, _, _, _ in _HEADLINES)]
    if baselines is not None:
        headings.append("% improvement")
    lines += ["| " + " | ".join(headings) + " |", "|" + "---|" * len(headings)]
    for row in rows:
        lines.append("| " + " | ".join([row.backend_id, *_headline_cells(row, baselines)]) + " |")
    return "\n".join(lines) + "\n"


_GROUPS = ("edges", "paths", "property", "all")


def render_csv(
    rows: Sequence[ReportRow],
    *,
    baselines: dict[str, ReportRow] | None = None,
) -> str:
    """Machine-readable report: verdict counts plus rounded percentages."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    head = ["backend"]
    for group in _GROUPS:
        head += [f"{group}_total", f"{group}_consistent", f"{group}_inconsistent", f"{group}_incomplete"]
    head += [name for _, name, _, _ in _HEADLINES]
    if baselines is not None:
        head.append("pct_improvement")
    writer.writerow(head)
    for row in rows:
        cells: list[object] = [row.backend_id]
        for group in _GROUPS:
            count: GroupCount = getattr(row, group)
            cells += [count.total, count.consistent, count.inconsistent, count.incomplete]
        writer.writerow(cells + _headline_cells(row, baselines))
    return buffer.getvalue()
