"""Percentage formatting and report rendering."""

from __future__ import annotations

import csv
import io
from decimal import Decimal

import pytest

import conceptcheck as cc


def group(total, inconsistent=0, incomplete=0):
    return cc.GroupCount(
        total=total,
        consistent=total - inconsistent - incomplete,
        inconsistent=inconsistent,
        incomplete=incomplete,
    )


def row(backend_id="m", edges=group(96), paths=group(12), prop=group(11)):
    whole = cc.GroupCount(
        total=edges.total + paths.total + prop.total,
        consistent=edges.consistent + paths.consistent + prop.consistent,
        inconsistent=edges.inconsistent + paths.inconsistent + prop.inconsistent,
        incomplete=edges.incomplete + paths.incomplete + prop.incomplete,
    )
    return cc.ReportRow(backend_id=backend_id, edges=edges, paths=paths, property=prop, all=whole)


# --- rounding ---------------------------------------------------------------


def test_round_percent_half_up():
    assert cc.round_percent(1, 8) == Decimal("12.50")
    assert cc.round_percent(1, 3) == Decimal("33.33")
    assert cc.round_percent(2, 3) == Decimal("66.67")
    # ties round away from zero, not to even
    assert cc.round_percent(1, 800) == Decimal("0.13")
    assert cc.round_percent(3, 800) == Decimal("0.38")
    assert cc.round_percent(92, 140) == Decimal("65.71")
    assert cc.round_percent(4, 96) == Decimal("4.17")


def test_round_percent_rejects_zero_total():
    with pytest.raises(ZeroDivisionError):
        cc.round_percent(0, 0)


def test_format_percent_trims_trailing_zeros():
    assert cc.format_percent(1, 4) == "25"
    assert cc.format_percent(0, 7) == "0"
    assert cc.format_percent(7, 7) == "100"
    assert cc.format_percent(4, 96) == "4.17"
    assert cc.format_percent(1, 8) == "12.5"
    assert cc.format_percent(39, 96) == "40.63"
    assert cc.format_percent(0, 0) == "-"


# --- markdown ---------------------------------------------------------------


def test_render_markdown_structure():
    rows = [
        row("model-a", edges=group(96, inconsistent=4, incomplete=1), paths=group(12, inconsistent=2),
            prop=group(11, inconsistent=4)),
        row("model-b"),
    ]
    text = cc.render_markdown(rows, dataset_fingerprint="abc123", title="Weekly check")
    lines = text.splitlines()
    assert lines[0] == "# Weekly check"
    assert "Dataset fingerprint: `abc123`" in text
    assert "Clusters: 119 total = 96 edges + 12 paths + 11 property inheritance." in text
    header_idx = lines.index(
        "| backend | % incomplete edges | % inconsistent edges | % inconsistent paths "
        "| % inconsistent properties | % all inconsistent |"
    )
    assert lines[header_idx + 1] == "|---|---|---|---|---|---|"
    assert lines[header_idx + 2] == "| model-a | 1.04 | 4.17 | 16.67 | 36.36 | 8.4 |"
    assert lines[header_idx + 3] == "| model-b | 0 | 0 | 0 | 0 | 0 |"


def test_render_markdown_improvement_comes_from_count_delta():
    # 39/119 baseline vs 23/119 augmented: the delta 16/119 renders 13.45;
    # subtracting the two rounded cells (32.77 - 19.33) would give 13.44.
    baseline = row("m", edges=group(96, inconsistent=25), paths=group(12, inconsistent=4),
                   prop=group(11, inconsistent=10))
    augmented = row("m", edges=group(96, inconsistent=15), paths=group(12, inconsistent=3),
                    prop=group(11, inconsistent=5))
    assert baseline.all.inconsistent == 39
    assert augmented.all.inconsistent == 23
    text = cc.render_markdown([augmented], baselines={"m": baseline})
    assert "% improvement |" in text.splitlines()[-3]
    assert text.splitlines()[-1].endswith("| 13.45 |")
    assert cc.format_percent(39, 119) == "32.77"
    assert cc.format_percent(23, 119) == "19.33"


@pytest.mark.parametrize("render", [cc.render_markdown, cc.render_csv])
def test_render_refuses_a_baseline_with_other_denominators(render):
    # Same cluster total, split differently across groups: printing a share
    # of its improvement would compare two datasets, as `improvement` refuses to.
    augmented = row("m", edges=group(96), paths=group(12), prop=group(11))
    baseline = row("m", edges=group(95, inconsistent=9), paths=group(13), prop=group(11))
    assert baseline.all.total == augmented.all.total
    with pytest.raises(cc.DenominatorMismatch):
        cc.improvement(baseline, augmented)
    with pytest.raises(cc.DenominatorMismatch):
        render([augmented], baselines={"m": baseline})


def test_render_markdown_improvement_dash_without_baseline():
    text = cc.render_markdown([row("m")], baselines={})
    assert text.splitlines()[-1].endswith("| - |")


def test_render_markdown_no_rows():
    text = cc.render_markdown([])
    assert "| backend |" in text  # header still present


# --- csv ---------------------------------------------------------------------


def test_render_csv_counts_and_percentages():
    r = row("model-a", edges=group(96, inconsistent=4, incomplete=1), paths=group(12, inconsistent=2),
            prop=group(11, inconsistent=4))
    parsed = list(csv.reader(io.StringIO(cc.render_csv([r]))))
    head, data = parsed[0], parsed[1]
    record = dict(zip(head, data))
    assert record["backend"] == "model-a"
    assert record["edges_total"] == "96"
    assert record["edges_consistent"] == "91"
    assert record["edges_inconsistent"] == "4"
    assert record["edges_incomplete"] == "1"
    assert record["paths_inconsistent"] == "2"
    assert record["property_inconsistent"] == "4"
    assert record["all_total"] == "119"
    assert record["all_inconsistent"] == "10"
    assert record["pct_inconsistent_edges"] == "4.17"
    assert record["pct_inconsistent_paths"] == "16.67"
    assert record["pct_inconsistent_property"] == "36.36"
    assert record["pct_all_inconsistent"] == "8.4"
    assert "pct_improvement" not in record


def test_render_csv_improvement_column():
    baseline = row("m", edges=group(96, inconsistent=20), paths=group(12), prop=group(11))
    augmented = row("m", edges=group(96, inconsistent=8), paths=group(12), prop=group(11))
    parsed = list(csv.reader(io.StringIO(cc.render_csv([augmented], baselines={"m": baseline}))))
    record = dict(zip(parsed[0], parsed[1]))
    assert record["pct_improvement"] == cc.format_percent(12, 119)
    missing = list(csv.reader(io.StringIO(cc.render_csv([augmented], baselines={}))))
    assert dict(zip(missing[0], missing[1]))["pct_improvement"] == "-"
