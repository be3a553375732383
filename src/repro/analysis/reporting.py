"""ASCII rendering of the reproduced tables and figures.

The engine's render hooks, the benchmarks and the examples print the
same rows/series the paper reports; these helpers keep the formatting
in one place.  The Fig. 3, Table I and Table II renderers read an
engine record (``repro.engine/result/v1``) directly.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Sequence


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[str]]) -> str:
    """Render an ASCII table with padded columns."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(
                f"row {row!r} has {len(row)} cells, expected {columns}"
            )
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        if rows else len(str(headers[i]))
        for i in range(columns)
    ]
    divider = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(divider)
    for row in rows:
        lines.append(
            " | ".join(str(c).ljust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)


def format_count(value: float) -> str:
    """Format an encryption count the way the paper prints them."""
    if value >= 1_000_000:
        return ">1M"
    return f"{value:,.0f}"


def figure3_series(record: Mapping[str, Any],
                   use_flush: bool) -> List[Dict[str, Any]]:
    """One Fig. 3 series of a ``figure3`` record, by probing round."""
    return sorted(
        (c for c in record["cells"] if c["cell"]["use_flush"] == use_flush),
        key=lambda c: c["cell"]["probing_round"],
    )


def render_figure3(record: Mapping[str, Any]) -> str:
    """Fig. 3 as a log-scale ASCII bar chart plus the raw series."""
    rows = []
    flush = {c["cell"]["probing_round"]: c
             for c in figure3_series(record, True)}
    no_flush = {c["cell"]["probing_round"]: c
                for c in figure3_series(record, False)}
    rounds = sorted(set(flush) | set(no_flush))
    max_log = max(
        math.log10(max(c["encryptions"], 1.0))
        for c in record["cells"]
    )
    scale = 40 / max(max_log, 1.0)
    for probing_round in rounds:
        for label, series in (("flush", flush), ("no-flush", no_flush)):
            cell = series.get(probing_round)
            if cell is None:
                continue
            bar = "#" * max(
                1, int(math.log10(max(cell["encryptions"], 1.0)) * scale)
            )
            marker = "" if cell["simulated"] else " (analytic)"
            rows.append(
                f"round {probing_round:>2} {label:>8} "
                f"{format_count(cell['encryptions']):>10} |{bar}{marker}"
            )
    header = ("Fig. 3 — Required encryptions to break the 1st GIFT round\n"
              "(log-scale bars; 'analytic' = beyond the Monte-Carlo budget)")
    return header + "\n" + "\n".join(rows)


def _table1_text(cell: Mapping[str, Any]) -> str:
    """Paper-style Table I cell text (``>1M`` for drop-outs)."""
    if cell["dropped_out"]:
        return ">1M"
    value = f"{cell['encryptions']:,.0f}"
    return value if cell["simulated"] else f"~{value}"


def table1_rows(record: Mapping[str, Any]) -> List[List[str]]:
    """A ``table1`` record as the paper lays it out (line sizes x
    probing rounds)."""
    cells = {(c["cell"]["line_words"], c["cell"]["probing_round"]): c
             for c in record["cells"]}
    line_sizes = sorted({line_words for line_words, _ in cells})
    rounds = sorted({probing_round for _, probing_round in cells})
    return [
        [f"{line_words} Word" + ("s" if line_words > 1 else "")]
        + [_table1_text(cells[(line_words, r)]) for r in rounds]
        for line_words in line_sizes
    ]


def render_table1(record: Mapping[str, Any]) -> str:
    """Table I in the paper's layout."""
    rounds = sorted({c["cell"]["probing_round"] for c in record["cells"]})
    headers = ["Cache Line Size"] + [str(r) for r in rounds]
    return format_table(
        "Table I — Required encryptions to attack the first round",
        headers,
        table1_rows(record),
    )


def table2_rows(record: Mapping[str, Any]) -> List[List[str]]:
    """A ``table2`` record as the paper lays it out (platforms x
    frequencies, cells = probed round)."""
    probed = {(c["cell"]["platform"], c["cell"]["frequency_mhz"]):
              c["probed_round"] for c in record["cells"]}
    platforms = list(dict.fromkeys(platform for platform, _ in probed))
    frequencies = sorted({mhz for _, mhz in probed})
    return [
        [platform] + [str(probed[(platform, mhz)]) for mhz in frequencies]
        for platform in platforms
    ]


def render_table2(record: Mapping[str, Any]) -> str:
    """Table II in the paper's layout."""
    frequencies = sorted({c["cell"]["frequency_mhz"]
                          for c in record["cells"]})
    headers = ["Platform"] + [f"{mhz:g} MHz" for mhz in frequencies]
    return format_table(
        "Table II — Attack efficiency (probed round) of performed attacks",
        headers,
        table2_rows(record),
    )


def render_series(title: str, labels: Sequence[str],
                  values: Sequence[float]) -> str:
    """Simple labelled numeric series (used by ablation reports)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    width = max((len(l) for l in labels), default=0)
    lines: List[str] = [title]
    for label, value in zip(labels, values):
        lines.append(f"  {label.ljust(width)} : {format_count(value)}")
    return "\n".join(lines)
