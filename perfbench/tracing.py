"""Spans around the public entry points of each ``repro`` layer.

The tracer wraps functions and methods from outside: a module-level
function is replaced at every binding site (each ``repro`` module that
imported it by name), a method on its class.  Nothing in the program
is edited, and :meth:`Tracer.uninstall` puts every original back.

Each call through a wrapper is one span: an id, the id of the span it
ran inside, a name, the id of the benchmark operation it belongs to,
and monotonic start and end times in nanoseconds.  Spans are kept in
columnar arrays in memory and written out by :meth:`Tracer.write`.
Self time -- a span's duration minus the time its child spans cover --
is accumulated per name as spans close.  Work done by a post-call hook
is charged to no span.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute path).  A one-part path names a module
# function, patched at its binding sites; a two-part path is a method.
LAYER_ENTRY_POINTS = (
    ("oal.parse", "repro.oal.parser", ("parse_activity",)),
    ("oal.analyze", "repro.oal.analyzer", ("analyze_activity",)),
    ("exec.lower", "repro.exec.ir", ("lower_block",)),
    ("exec.ir", "repro.exec.evaluator", ("IRExecutor", "run")),
    ("mda.compile", "repro.mda.compiler", ("ModelCompiler", "compile")),
    ("mda.manifest", "repro.mda.manifest", ("build_manifest",)),
    ("mda.emit_c", "repro.mda.cgen", ("CGenerator", "emit_types_header")),
    ("mda.emit_c", "repro.mda.cgen", ("CGenerator", "emit_arch_header")),
    ("mda.emit_c", "repro.mda.cgen", ("CGenerator", "emit_class_header")),
    ("mda.emit_c", "repro.mda.cgen", ("CGenerator", "emit_class_source")),
    ("mda.emit_c", "repro.mda.cgen", ("CGenerator", "emit_kernel_source")),
    ("mda.emit_vhdl", "repro.mda.vhdlgen",
     ("VhdlGenerator", "emit_runtime_package")),
    ("mda.emit_vhdl", "repro.mda.vhdlgen", ("VhdlGenerator", "emit_entity")),
    ("mda.interface", "repro.mda.interfacegen", ("build_interface_spec",)),
    ("mda.interface", "repro.mda.interfacegen",
     ("InterfaceSpec", "emit_c_header")),
    ("mda.interface", "repro.mda.interfacegen",
     ("InterfaceSpec", "emit_vhdl_package")),
    ("mda.csim", "repro.mda.csim", ("CSoftwareMachine", "run_to_quiescence")),
    ("mda.csim", "repro.mda.csim", ("CSoftwareMachine", "run_until")),
    ("mda.vsim", "repro.mda.vsim", ("VHardwareMachine", "run_to_quiescence")),
    ("mda.vsim", "repro.mda.vsim", ("VHardwareMachine", "run_until")),
    ("marks.partition", "repro.marks.partition", ("derive_partition",)),
    ("marks.partition", "repro.marks.partition", ("signal_flows",)),
    ("marks.partition", "repro.marks.partition", ("partition_from_flows",)),
    ("runtime.setup", "repro.runtime.simulator", ("Simulation", "__init__")),
    ("runtime.step", "repro.runtime.simulator", ("Simulation", "step")),
    ("cosim.engine", "repro.cosim.engine", ("CoSimMachine", "run")),
    ("cosim.bus", "repro.cosim.bus", ("Bus", "grant")),
    ("build.compile", "repro.build.incremental",
     ("IncrementalCompiler", "compile")),
    ("build.store.get", "repro.build.store", ("ArtifactStore", "get")),
    ("build.store.put", "repro.build.store", ("ArtifactStore", "put")),
    ("build.fingerprint", "repro.build.fingerprint", ("model_fingerprint",)),
    ("build.fingerprint", "repro.build.fingerprint", ("marks_fingerprint",)),
    ("build.fingerprint", "repro.build.fingerprint", ("rules_fingerprint",)),
    ("build.fingerprint", "repro.build.fingerprint", ("build_fingerprint",)),
    ("build.fingerprint", "repro.build.fingerprint",
     ("class_dependency_key",)),
    ("build.fingerprint", "repro.build.fingerprint",
     ("shared_dependency_key",)),
    ("build.fingerprint", "repro.build.fingerprint",
     ("manifest_dependency_key",)),
    ("analysis.explorer", "repro.analysis.witness", ("run_scenario",)),
    ("analysis.detectors", "repro.analysis.detectors", ("analyze_model",)),
    ("xuml.wellformed", "repro.xuml.wellformed", ("check_model",)),
    ("verify.run_case", "repro.verify.runner", ("run_case",)),
)


class Tracer:
    """Records spans and per-name counts while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.parent_id = array("q")
        self.name_id = array("q")
        self.op_id = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._next_id = 0
        self._stack: list[list[int]] = []   # [span id, child ns] per frame
        self.current_op = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.parsed_bodies: set[str] = set()
        self._ir_depth: dict[int, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, pre=None, post=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack
        clock = time.perf_counter_ns
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        span_id, parent_id, name_id = self.span_id, self.parent_id, self.name_id
        op_id, start_ns, end_ns = self.op_id, self.start_ns, self.end_ns
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else None
            token = pre(args) if pre is not None else None
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                total_ns[name] += duration
                self_ns[name] += duration - frame[1]
                span_id.append(sid)
                parent_id.append(parent[0] if parent is not None else -1)
                name_id.append(nid)
                op_id.append(tracer.current_op)
                start_ns.append(start)
                end_ns.append(end)
            if post is not None:
                post(token, result, args)
            if parent is not None:
                # the hook's own time is charged to no span
                parent[1] += clock() - start
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYER_ENTRY_POINTS`."""
        hooks = {
            "oal.parse": (None, self._post_parse),
            "exec.ir": (self._pre_ir, self._post_ir),
            "mda.compile": (None, self._post_compile),
            "runtime.step": (None, self._post_step),
            "cosim.engine": (None, self._post_cosim_run),
            "cosim.bus": (None, self._post_grant),
            "build.compile": (None, self._post_build_compile),
            "build.store.get": (None, self._post_store_get),
            "analysis.explorer": (None, self._post_explorer),
        }
        for name, module_name, path in LAYER_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            pre, post = hooks.get(name, (None, None))
            if len(path) == 2:
                cls = getattr(module, path[0])
                original = cls.__dict__[path[1]]
                self._restore.append((cls, path[1], original))
                setattr(cls, path[1], self._wrap(name, original, pre, post))
                continue
            original = getattr(module, path[0])
            wrapper = self._wrap(name, original, pre, post)
            for site, attribute in _binding_sites(original):
                self._restore.append((site, attribute, original))
                setattr(site, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    # -- hooks ----------------------------------------------------------------

    def _post_parse(self, _token, _result, args) -> None:
        self.parsed_bodies.add(args[0])

    def _pre_ir(self, args):
        executor = args[0]
        key = id(executor)
        self._ir_depth[key] += 1
        return executor.ops_executed

    def _post_ir(self, before, _result, args) -> None:
        executor = args[0]
        key = id(executor)
        self._ir_depth[key] -= 1
        if self._ir_depth[key] == 0:
            # nested runs on one executor are inside the outer delta
            del self._ir_depth[key]
            self.counts["exec.ir.ops"] += executor.ops_executed - before

    def _post_compile(self, _token, build, _args) -> None:
        self.counts["mda.artifact_bytes"] += _artifact_bytes(build)

    def _post_build_compile(self, _token, build, args) -> None:
        self.counts["mda.artifact_bytes"] += _artifact_bytes(build)
        self.counts["build.manifest_memo.lookups"] += 1
        if args[0].last_stats.manifest_reused:
            self.counts["build.manifest_memo.reused"] += 1

    def _post_step(self, _token, stepped, _args) -> None:
        if stepped:
            self.counts["runtime.steps"] += 1

    def _post_cosim_run(self, _token, dispatches, _args) -> None:
        self.counts["cosim.dispatches"] += dispatches

    def _post_grant(self, _token, granted, _args) -> None:
        if granted is not None:
            self.counts["cosim.bus.grants"] += 1

    def _post_store_get(self, _token, payload, _args) -> None:
        key = "build.store.misses" if payload is None else "build.store.hits"
        self.counts[key] += 1

    def _post_explorer(self, _token, record, _args) -> None:
        if record.truncated:
            self.counts["analysis.explorer.truncated"] += 1

    # -- output ---------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_id)

    def write(self, stem: str) -> list[str]:
        """Write spans as ``<stem>.spans.json`` + ``<stem>.spans.bin``.

        The binary file holds six int64 columns of ``span_count`` values
        each, in the order and byte order the JSON header lists.
        """
        columns = ("span_id", "parent_id", "name_id", "op_id",
                   "start_ns", "end_ns")
        header = {"columns": list(columns), "names": self.names,
                  "span_count": self.span_count, "dtype": "int64",
                  "byteorder": sys.byteorder}
        with open(f"{stem}.spans.json", "w", encoding="utf-8") as handle:
            json.dump(header, handle, indent=1)
        with open(f"{stem}.spans.bin", "wb") as handle:
            for column in columns:
                getattr(self, column).tofile(handle)
        return [f"{stem}.spans.json", f"{stem}.spans.bin"]


def _artifact_bytes(build) -> int:
    return sum(len(text.encode("utf-8")) for text in build.artifacts.values())


def _binding_sites(function) -> list[tuple[object, str]]:
    """(module, name) for every loaded ``repro`` module binding *function*."""
    sites = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        sites.extend((module, attribute)
                     for attribute, value in list(vars(module).items())
                     if value is function)
    return sites
