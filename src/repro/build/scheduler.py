"""Batch compilation service — the catalog × mark-variant matrix.

:func:`catalog_matrix` enumerates the standard build matrix (every
catalog model × the all-software baseline, each single-class hardware
retarget, and the all-hardware build); :func:`run_batch` compiles the
matrix in one serial loop through one content-addressed store.

Catalog jobs take a few milliseconds each, so the cost that matters is
the store's hit rate, not fan-out.  Guarantees the service makes:

* **deterministic ordering** — results come back in matrix order, so
  two runs of the same matrix produce comparable reports line-for-line;
* **failure containment** — a job that raises is reported as failed and
  the batch carries on with the next one;
* **shared-cache safety** — several ``repro batch`` processes may share
  one cache directory through the store's atomic writes; identical keys
  always carry identical bytes, so racing writers are harmless.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.marks.partition import marks_for_partition
from repro.models.catalog import CATALOG, build_model
from repro.obs.metrics import active_registry

from .fingerprint import artifacts_digest
from .incremental import IncrementalCompiler
from .store import ArtifactStore, StoreStats


@dataclass(frozen=True)
class BatchJob:
    """One cell of the build matrix: a model under one partition."""

    model: str
    variant: str
    hardware: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return f"{self.model}:{self.variant}"


@dataclass
class JobResult:
    """What one cell produced (or why it did not)."""

    job: BatchJob
    ok: bool
    error: str = ""
    artifact_count: int = 0
    total_lines: int = 0
    digest: str = ""
    classes_total: int = 0
    classes_compiled: int = 0
    classes_reused: int = 0
    elapsed_s: float = 0.0
    store: StoreStats = field(default_factory=StoreStats)

    @property
    def fully_cached(self) -> bool:
        return self.ok and self.classes_compiled == 0


@dataclass
class BatchReport:
    """The whole batch, in matrix order, plus aggregate counters."""

    results: list[JobResult]
    elapsed_s: float

    @property
    def failed(self) -> list[JobResult]:
        return [r for r in self.results if not r.ok]

    @property
    def store(self) -> StoreStats:
        total = StoreStats()
        for result in self.results:
            total.merge(result.store)
        return total

    @property
    def hit_rate(self) -> float:
        return self.store.hit_rate

    @property
    def classes_compiled(self) -> int:
        return sum(r.classes_compiled for r in self.results)

    @property
    def classes_reused(self) -> int:
        return sum(r.classes_reused for r in self.results)


def catalog_matrix(models: tuple[str, ...] | None = None) -> list[BatchJob]:
    """The standard batch matrix over the model catalog.

    Per model: the all-software baseline, one single-class hardware
    retarget per class (the paper's "move one mark" operation), and the
    all-hardware build.  Unknown model names raise ``KeyError`` naming
    the catalog.
    """
    known = tuple(entry.name for entry in CATALOG)
    if models:
        unknown = [name for name in models if name not in known]
        if unknown:
            raise KeyError(
                f"no catalog model named {'/'.join(unknown)} "
                f"(have {'/'.join(known)})")
    jobs: list[BatchJob] = []
    for entry in CATALOG:
        if models and entry.name not in models:
            continue
        component = entry.build().components[0]
        keys = tuple(sorted(component.class_keys))
        variants = [("sw-only", ())]
        variants.extend((f"hw={key}", (key,)) for key in keys)
        variants.append(("hw-all", keys))
        jobs.extend(
            BatchJob(entry.name, label, hardware)
            for label, hardware in variants
        )
    return jobs


def _execute_job(job: BatchJob, store: ArtifactStore | None) -> JobResult:
    """Compile one matrix cell; an exception fails the cell, not the batch."""
    start = time.perf_counter()
    try:
        model = build_model(job.model)
        component = model.components[0]
        marks = marks_for_partition(component, job.hardware)
        compiler = IncrementalCompiler(model, store=store)
        build = compiler.compile(marks)
        stats = compiler.last_stats
        return JobResult(
            job=job,
            ok=True,
            artifact_count=len(build.artifacts),
            total_lines=build.total_lines(),
            digest=artifacts_digest(build.artifacts),
            classes_total=stats.classes_total,
            classes_compiled=stats.classes_compiled,
            classes_reused=stats.classes_reused,
            elapsed_s=time.perf_counter() - start,
            store=stats.store,
        )
    except Exception as exc:
        return JobResult(
            job=job, ok=False,
            error=f"{type(exc).__name__}: {exc}",
            elapsed_s=time.perf_counter() - start,
        )


def run_batch(
    matrix: list[BatchJob], store: ArtifactStore | None = None,
) -> BatchReport:
    """Compile the whole *matrix* in order through *store*; see module docs.

    With ``store=None`` every job compiles fresh (the in-process
    manifest memo still spares same-model jobs the OAL lowering).  The
    store reports its own traffic to the metrics registry that was active
    when it was built.
    """
    start = time.perf_counter()
    results = [_execute_job(job, store) for job in matrix]
    report = BatchReport(results=results,
                         elapsed_s=time.perf_counter() - start)
    registry = active_registry()
    if registry is not None:
        wall = registry.histogram("build.job_wall_ms")
        for result in results:
            wall.observe(result.elapsed_s * 1_000)
        failed = len(report.failed)
        registry.counter("build.jobs_ok").inc(len(results) - failed)
        registry.counter("build.jobs_failed").inc(failed)
    return report
