"""Content-addressed build cache + batch compilation (E9).

* :mod:`~repro.build.fingerprint` — stable content hashes of
  model/marks/rules, with per-class dependency keys
* :class:`ArtifactStore` — on-disk object store with LRU GC; its atomic
  writes let several processes share one cache directory
* :class:`IncrementalCompiler` — retargets reuse cached per-class
  artifacts, byte-identical to a cold build
* :func:`run_batch` — one serial loop over the catalog × mark-variant
  matrix through one store, a failing job contained to its own row
"""

from .fingerprint import (
    GENERATOR_VERSION,
    artifacts_digest,
    build_fingerprint,
    canonical_json,
    class_dependency_key,
    manifest_dependency_key,
    marks_fingerprint,
    model_fingerprint,
    rules_fingerprint,
    shared_dependency_key,
)
from .incremental import (
    CompileStats,
    IncrementalCompiler,
    clear_manifest_memo,
)
from .report import (
    batch_to_csv,
    render_batch_table,
    render_cache_summary,
    write_batch_csv,
)
from .scheduler import (
    BatchJob,
    BatchReport,
    JobResult,
    catalog_matrix,
    run_batch,
)
from .store import ArtifactStore, StoreError, StoreStats

__all__ = [
    "ArtifactStore",
    "BatchJob",
    "BatchReport",
    "CompileStats",
    "GENERATOR_VERSION",
    "IncrementalCompiler",
    "JobResult",
    "StoreError",
    "StoreStats",
    "artifacts_digest",
    "batch_to_csv",
    "build_fingerprint",
    "canonical_json",
    "catalog_matrix",
    "class_dependency_key",
    "clear_manifest_memo",
    "manifest_dependency_key",
    "marks_fingerprint",
    "model_fingerprint",
    "render_batch_table",
    "render_cache_summary",
    "rules_fingerprint",
    "run_batch",
    "shared_dependency_key",
    "write_batch_csv",
]
