"""E9 — the build cache makes the paper's cheap-retarget claim measurable.

E2 showed a partition change costs one mark flip instead of hundreds of
hand-edited lines; E9 shows the *regeneration* after that flip is cheap
too.  Shape to reproduce: a warm-cache single-mark retarget is at least
5× faster than a cold full compile while recompiling strictly fewer
classes and producing byte-identical artifacts; and a repeated batch
over the catalog × mark-variant matrix is served from the cache with
nothing recompiled.

Timing uses best-of-N medians over the same inputs; byte-identity and
class-reuse assertions are exact, so a cache bug fails the bench even
on a noisy machine.
"""

from __future__ import annotations

import statistics
import time

from repro.build import (
    ArtifactStore,
    IncrementalCompiler,
    batch_to_csv,
    catalog_matrix,
    clear_manifest_memo,
    run_batch,
)
from repro.marks import marks_for_partition
from repro.mda import ModelCompiler
from repro.models import build_model

from conftest import print_table

MODEL = "elevator"
ROUNDS = 5


def _median_time(fn, rounds: int = ROUNDS) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_experiment(tmp_path):
    model = build_model(MODEL)
    component = model.components[0]
    keys = sorted(component.class_keys)
    marks_a = marks_for_partition(component, (keys[0],))
    marks_b = marks_for_partition(component, (keys[1],))

    # --- cold: the status quo, a full compile per retarget -------------
    clear_manifest_memo()
    cold_s = _median_time(lambda: ModelCompiler(model).compile(marks_b))
    cold_build = ModelCompiler(model).compile(marks_b)

    # --- warm: the cache has seen partition A; retarget to B -----------
    clear_manifest_memo()
    store = ArtifactStore(tmp_path / "cache")
    compiler = IncrementalCompiler(model, store=store)
    compiler.compile(marks_a)
    first_start = time.perf_counter()
    warm_build = compiler.compile(marks_b)
    first_retarget_s = time.perf_counter() - first_start
    retarget_stats = compiler.last_stats
    # steady state: every piece of both partitions is cached
    warm_s = _median_time(lambda: compiler.compile(marks_b))

    # --- batch: the full catalog matrix into an empty cache, then again
    matrix = catalog_matrix()
    clear_manifest_memo()
    cache_dir = tmp_path / "batch-cache"
    first = run_batch(matrix, ArtifactStore(cache_dir))
    cached = run_batch(matrix, ArtifactStore(cache_dir))

    return {
        "cold_s": cold_s,
        "first_retarget_s": first_retarget_s,
        "warm_s": warm_s,
        "cold_build": cold_build,
        "warm_build": warm_build,
        "retarget_stats": retarget_stats,
        "matrix": matrix,
        "first": first,
        "cached": cached,
    }


def test_e9_build_cache(benchmark, tmp_path):
    results = benchmark.pedantic(
        lambda: run_experiment(tmp_path), rounds=1, iterations=1)

    cold_s = results["cold_s"]
    warm_s = results["warm_s"]
    first_s = results["first_retarget_s"]
    stats = results["retarget_stats"]
    first = results["first"]
    cached = results["cached"]

    print_table(
        f"E9: build cache — cold vs warm retarget ({MODEL}), "
        f"batch x{len(results['matrix'])} jobs",
        f"{'measure':34s} {'value':>12s}",
        [
            f"{'cold full compile':34s} {cold_s * 1000:10.2f}ms",
            f"{'first warm retarget (1 mark)':34s} "
            f"{first_s * 1000:10.2f}ms",
            f"{'steady warm retarget':34s} {warm_s * 1000:10.2f}ms",
            f"{'speedup (cold/warm)':34s} {cold_s / warm_s:11.1f}x",
            f"{'classes recompiled on retarget':34s} "
            f"{stats.classes_compiled:3d} of {stats.classes_total:3d}",
            f"{'batch, empty cache':34s} "
            f"{first.elapsed_s * 1000:10.0f}ms",
            f"{'batch, second run':34s} "
            f"{cached.elapsed_s * 1000:10.0f}ms",
            f"{'second-run cache hit rate':34s} "
            f"{cached.hit_rate * 100:10.1f}%",
            f"{'second-run classes recompiled':34s} "
            f"{cached.classes_compiled:12d}",
        ],
    )

    # shape: warm retarget produces byte-identical artifacts to a cold
    # full build of the same marks
    assert results["warm_build"].artifacts == \
        results["cold_build"].artifacts

    # shape: the retarget recompiled strictly fewer classes — only the
    # two classes whose side changed (A's class back to sw, B's to hw)
    assert 0 < stats.classes_compiled < stats.classes_total
    assert stats.classes_reused == stats.classes_total - \
        stats.classes_compiled
    assert stats.manifest_reused

    # shape: the cached retarget is >= 5x faster than the cold compile
    assert cold_s >= 5 * warm_s, (
        f"warm retarget {warm_s * 1000:.2f}ms not 5x faster than "
        f"cold {cold_s * 1000:.2f}ms")

    # shape: the cached batch reproduces the first one byte for byte
    assert not first.failed and not cached.failed
    assert [r.digest for r in first.results] == \
        [r.digest for r in cached.results]

    # shape: a repeated batch is served from cache, nothing recompiled
    assert cached.hit_rate >= 0.9
    assert cached.classes_compiled == 0

    # the counters export as CSV like E8's sweeps do
    csv_lines = batch_to_csv(cached).strip().splitlines()
    assert csv_lines[0].startswith("model,variant,ok")
    assert len(csv_lines) == len(results["matrix"]) + 1

    benchmark.extra_info["cold_ms"] = round(cold_s * 1000, 3)
    benchmark.extra_info["warm_ms"] = round(warm_s * 1000, 3)
    benchmark.extra_info["speedup"] = round(cold_s / warm_s, 1)
    benchmark.extra_info["batch_first_ms"] = round(
        first.elapsed_s * 1000, 1)
    benchmark.extra_info["batch_cached_ms"] = round(
        cached.elapsed_s * 1000, 1)
    benchmark.extra_info["second_run_hit_rate"] = round(
        cached.hit_rate, 3)
