"""Incremental recompilation — retargets reuse everything marks left alone.

The paper's §4 claim is that "changing the partition is a matter of
changing the placement of the marks"; this module makes that claim a
*cached* operation.  :class:`IncrementalCompiler` is a
:class:`~repro.mda.compiler.ModelCompiler` that overrides only where the
manifest comes from and the two per-piece emission hooks of
:meth:`~repro.mda.compiler.ModelCompiler.assemble`, keying every piece
by its dependency fingerprint and filing the output in an
:class:`~repro.build.store.ArtifactStore`:

* the lowered manifest (the expensive parse/analyze/lower product, which
  carries the signal flows the partition is split from) depends only on
  the model, so every retarget reuses it;
* each class's artifacts depend on the model, the class's resolved
  target and the marks *on that class* — moving one mark recompiles only
  the moved class;
* the interface and the ``marks.mks`` snapshot depend on the whole
  marking, so they are regenerated every time (they are cheap, and the
  paper's point is precisely that both halves are re-derived on every
  change).

Because cold and warm builds run the one ``assemble`` pipeline, a warm
build is byte-identical to a cold one by construction — and the tests
and E9 bench verify it anyway.
"""

from __future__ import annotations

import json
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.marks.model import MarkSet
from repro.marks.partition import partition_from_flows
from repro.mda.compiler import Build, ModelCompiler
from repro.mda.manifest import ComponentManifest, build_manifest
from repro.mda.rules import RuleSet
from repro.xuml.model import Model

from .fingerprint import (
    class_dependency_key,
    manifest_dependency_key,
    marks_fingerprint,
    model_fingerprint,
    rules_fingerprint,
    shared_dependency_key,
)
from .store import ArtifactStore, StoreStats

#: In-process manifest memo (manifest key -> manifest); bounded so
#: long-lived batch workers touring a large catalog stay bounded too.
_MANIFEST_MEMO: "OrderedDict[str, ComponentManifest]" = OrderedDict()
_MEMO_LIMIT = 32


@dataclass
class CompileStats:
    """What one :meth:`IncrementalCompiler.compile` call reused vs redid."""

    model: str
    component: str
    classes_total: int = 0
    classes_compiled: int = 0
    classes_reused: int = 0
    shared_compiled: int = 0
    shared_reused: int = 0
    manifest_reused: bool = False
    marks_fp: str = ""
    #: this compile's slice of the store counters
    store: StoreStats = field(default_factory=StoreStats)

    @property
    def fully_cached(self) -> bool:
        return self.classes_compiled == 0 and self.shared_compiled == 0

    def describe(self) -> str:
        manifest = "reused" if self.manifest_reused else "lowered"
        return (
            f"{self.model}/{self.component}: "
            f"{self.classes_compiled}/{self.classes_total} classes "
            f"compiled, {self.classes_reused} reused; "
            f"shared {self.shared_compiled} compiled "
            f"{self.shared_reused} reused; manifest {manifest}"
        )

    def as_dict(self) -> dict:
        data = {
            "model": self.model,
            "component": self.component,
            "classes_total": self.classes_total,
            "classes_compiled": self.classes_compiled,
            "classes_reused": self.classes_reused,
            "shared_compiled": self.shared_compiled,
            "shared_reused": self.shared_reused,
            "manifest_reused": self.manifest_reused,
        }
        data.update(self.store.as_dict())
        return data


class IncrementalCompiler(ModelCompiler):
    """A :class:`ModelCompiler` with a content-addressed artifact cache.

    With ``store=None`` it still memoizes the lowered manifest in
    process (every same-model retarget skips re-parsing), but emits all
    artifacts fresh; with a store, per-class and shared artifacts come
    from cache whenever their dependency keys match.
    """

    def __init__(
        self,
        model: Model,
        component: str | None = None,
        rules: RuleSet | None = None,
        store: ArtifactStore | None = None,
    ):
        super().__init__(model, component, rules)
        self.store = store
        self._model_fp = model_fingerprint(model)
        self._rules_fp = rules_fingerprint(self.rules)
        self.last_stats: CompileStats | None = None

    @property
    def model_fingerprint(self) -> str:
        return self._model_fp

    def compile(self, marks: MarkSet) -> Build:
        """The same pipeline as ``ModelCompiler.compile``, cached."""
        self.last_stats = stats = CompileStats(
            model=self.model.name, component=self.component.name,
            classes_total=len(self.component.classes),
            marks_fp=marks_fingerprint(marks),
        )
        before = (self.store.stats.snapshot() if self.store is not None
                  else None)
        manifest = self._manifest()
        partition = partition_from_flows(self.component, marks, manifest.flows)
        build = self.assemble(manifest, partition, marks)
        if before is not None:
            stats.store = self.store.stats.delta(before)
        return build

    # -- cached pieces -------------------------------------------------------

    def _manifest(self) -> ComponentManifest:
        key = manifest_dependency_key(self._model_fp, self.component.name)
        manifest = _MANIFEST_MEMO.get(key)
        if manifest is not None:
            _MANIFEST_MEMO.move_to_end(key)
            self.last_stats.manifest_reused = True
            return manifest
        payload = self.store.get(key) if self.store is not None else None
        if payload is not None:
            manifest = pickle.loads(payload)
            self.last_stats.manifest_reused = True
        else:
            manifest = build_manifest(self.model, self.component)
            if self.store is not None:
                self.store.put(key, pickle.dumps(manifest))
        _MANIFEST_MEMO[key] = manifest
        while len(_MANIFEST_MEMO) > _MEMO_LIMIT:
            _MANIFEST_MEMO.popitem(last=False)
        return manifest

    def _shared_artifacts(self, kind: str, emit,
                          manifest: ComponentManifest) -> dict[str, str]:
        key = shared_dependency_key(self._model_fp, self.component.name,
                                    kind)
        cached = self._get_bundle(key)
        if cached is not None:
            self.last_stats.shared_reused += 1
            return cached
        bundle = super()._shared_artifacts(kind, emit, manifest)
        self._put_bundle(key, bundle)
        self.last_stats.shared_compiled += 1
        return bundle

    def _class_artifacts(self, manifest: ComponentManifest, class_key: str,
                         target: str, marks: MarkSet) -> dict[str, str]:
        key = class_dependency_key(
            self._model_fp, self._rules_fp, self.component.name,
            class_key, target, marks)
        cached = self._get_bundle(key)
        if cached is not None:
            self.last_stats.classes_reused += 1
            return cached
        bundle = super()._class_artifacts(manifest, class_key, target, marks)
        self._put_bundle(key, bundle)
        self.last_stats.classes_compiled += 1
        return bundle

    def _get_bundle(self, key: str) -> dict[str, str] | None:
        if self.store is None:
            return None
        text = self.store.get_text(key)
        if text is None:
            return None
        return json.loads(text)

    def _put_bundle(self, key: str, bundle: dict[str, str]) -> None:
        if self.store is not None:
            self.store.put_text(key, json.dumps(bundle, sort_keys=True))


def clear_manifest_memo() -> None:
    """Drop the in-process manifest memo (tests and benchmarks)."""
    _MANIFEST_MEMO.clear()
