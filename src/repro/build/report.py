"""Batch reporting — tables and CSV export of build-cache measurements.

The same renderer/CSV split as :mod:`repro.cosim.report`: one
fixed-width table shared by the CLI, the tutorial and E9, plus CSV
export of every job row and the aggregate cache counters so
the E9 bench feeds spreadsheets exactly like E8 does.
"""

from __future__ import annotations

import csv
import io

from .scheduler import BatchReport

_CSV_COLUMNS = (
    "model", "variant", "ok", "classes_total", "classes_compiled",
    "classes_reused", "artifacts", "lines", "digest", "hits", "misses",
    "evictions", "elapsed_s",
)


def render_batch_table(report: BatchReport) -> str:
    """The fixed-width batch table used everywhere."""
    lines = [
        f"{'model':12s} {'variant':10s} {'ok':>3s} {'comp':>5s} "
        f"{'reuse':>5s} {'files':>5s} {'lines':>6s} {'hits':>5s} "
        f"{'miss':>5s}"
    ]
    for result in report.results:
        if result.ok:
            lines.append(
                f"{result.job.model:12s} {result.job.variant:10s} "
                f"{'yes':>3s} {result.classes_compiled:5d} "
                f"{result.classes_reused:5d} {result.artifact_count:5d} "
                f"{result.total_lines:6d} {result.store.hits:5d} "
                f"{result.store.misses:5d}"
            )
        else:
            lines.append(
                f"{result.job.model:12s} {result.job.variant:10s} "
                f"{'NO':>3s} {result.error}"
            )
    return "\n".join(lines)


def render_cache_summary(report: BatchReport) -> str:
    """One-paragraph aggregate of the job and cache counters."""
    store = report.store
    lines = [
        f"batch: {len(report.results)} jobs in {report.elapsed_s:.2f}s "
        f"({len(report.failed)} failed)",
        f"  classes: {report.classes_compiled} compiled, "
        f"{report.classes_reused} reused from cache",
        f"  cache: {store.hits} hits / {store.lookups} lookups "
        f"(hit rate {store.hit_rate * 100:.1f}%), "
        f"{store.puts} writes, {store.evictions} evictions",
    ]
    return "\n".join(lines)


def batch_to_csv(report: BatchReport) -> str:
    """CSV text, one row per job, stable column order."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for result in report.results:
        writer.writerow([
            result.job.model, result.job.variant, int(result.ok),
            result.classes_total, result.classes_compiled,
            result.classes_reused, result.artifact_count,
            result.total_lines, result.digest, result.store.hits,
            result.store.misses, result.store.evictions,
            f"{result.elapsed_s:.4f}",
        ])
    return buffer.getvalue()


def write_batch_csv(report: BatchReport, path) -> str:
    """Write the CSV to *path*; returns the path written."""
    import pathlib

    target = pathlib.Path(path)
    target.write_text(batch_to_csv(report))
    return str(target)
