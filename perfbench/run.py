"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload conformance --seed 1 --seconds 25 --trace 0

Run from the repository root.  The ``repro`` package is imported from
``src/`` next to this directory; without it the command exits non-zero.
Workloads are listed in ``workloads.py``.  Every op's output is checked
against the committed references; any mismatch counts as a failed op
and makes the command exit 1.

With ``--trace 0`` the timed loop issues whole passes until ``--seconds``
have elapsed and reports the end-to-end metrics (same names for every
workload):

* ``setup_s`` -- median time of three fresh processes that import
  ``repro``, build the catalog and the workload's inputs, and run one
  untimed warm-up op;
* ``peak_rss_mb`` -- peak resident memory of this process;
* ``ops_per_s`` -- ops completed per second of op time;
* ``op_ms_p50``, ``op_ms_p95`` -- nearest-rank percentiles of op time.

Times in these metrics are scaled to the host's nominal speed
(``hostspeed.py``): a fixed probe, timed fifty times a second during the
timed loop and in bursts around each set-up process, says how fast the
shared host ran at that moment.  The probe's own time is taken out of
every op.  The unscaled throughput and set-up times are kept in the
metadata as ``wall_ops_per_s`` and ``setup_probe_wall_s``.

With ``--trace 1`` untraced passes fill half of ``--seconds``, then a
fixed number of passes runs with spans around each layer's entry points
(``tracing.py``), and the per-layer metrics are reported per traced
pass, together with ``trace.overhead_ratio``.  Counts in a traced pass
do not depend on timing, so two traced runs with one seed agree on them.

Lines before the last one are a readable report (including each
workload's own metric names, e.g. ``cosim.packets_per_s``, with sample
counts) and run metadata; the last line is the JSON result.  The same
result is written to ``perfbench/out/``, with the spans of a traced run.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from stats import percentile  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 3
#: host-speed samples taken before and after each set-up process
SETUP_PROBE_SAMPLES = 15


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in workloads.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, run the warm-up op and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    """Import ``repro`` from this checkout's ``src/``, never elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


class Loop:
    """Times ops, checks them and keeps the samples of one phase.

    With a running :class:`HostSpeed` the probe's time is taken out of
    each op and the op's clock readings are kept for :meth:`scaled_ns`.
    """

    def __init__(self, workload, out_problems: list[str], host=None):
        self.workload = workload
        self.problems = out_problems
        self.host = host
        self.op_ns: list[int] = []
        self.op_spans: list[tuple[int, int]] = []
        self.op_groups: list[str] = []
        self.pass_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.domain = 0

    def fail(self, text: str) -> None:
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(text)

    def run_pass(self, before_op=None, after_op=None) -> None:
        workload = self.workload
        clock = time.perf_counter_ns
        outputs = []
        pass_ns = 0
        for item in workload.pass_items():
            workload.prepare(item)
            if before_op is not None:
                before_op()
            self.attempted += 1
            start = clock()
            try:
                output = workload.run(item)
            except Exception as exc:  # noqa: BLE001 - a failed op is data
                self._record(item, start, clock())
                self.fail(f"{workload.key(item)}: raised "
                          f"{type(exc).__name__}: {exc}")
                continue
            elapsed = self._record(item, start, clock())
            if after_op is not None:
                after_op(item, output)
            pass_ns += elapsed
            problems = workload.check(item, output)
            if problems:
                self.fail(f"{workload.key(item)}: {'; '.join(problems)}")
            else:
                self.domain += workload.domain_count(item, output)
            outputs.append((item, output))
        self.pass_ns.append(pass_ns)
        for problem in workload.check_pass(outputs):
            # a pass-level check is one more checked outcome
            self.attempted += 1
            self.fail(problem)

    def _record(self, item, start: int, end: int) -> int:
        elapsed = end - start
        if self.host is not None:
            elapsed -= self.host.probe_ns_between(start, end)
            self.op_spans.append((start, end))
        self.op_ns.append(elapsed)
        self.op_groups.append(self.workload.group(item))
        return elapsed

    def scaled_ns(self) -> list[float]:
        """Op times at the host's nominal speed (raw without a probe)."""
        if self.host is None:
            return list(self.op_ns)
        return [ns * self.host.scale(start, end)
                for ns, (start, end) in zip(self.op_ns, self.op_spans)]

    def run_for(self, seconds: float, min_passes: int = 1) -> None:
        start = time.perf_counter()
        while (len(self.pass_ns) < min_passes
               or time.perf_counter() - start < seconds):
            self.run_pass()


def _setup_probe_seconds(args) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes that only set up (median reported).

    Returns the wall times and the same times scaled to the host's
    nominal speed, as measured by probe bursts just before and after
    each process.
    """
    samples, scaled = [], []
    host = HostSpeed()
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        before = host.sample_now(SETUP_PROBE_SAMPLES)
        start = time.perf_counter()
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        after = host.sample_now(SETUP_PROBE_SAMPLES)
        scaled.append(samples[-1] * (before + after) / 2)
        if completed.returncode != 0:
            raise SystemExit("error: set-up probe failed:\n"
                             + completed.stdout + completed.stderr)
    return samples, scaled


def _git_commit() -> str | None:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git_dir / ref
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over ``src/`` (path + bytes), for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _metadata(args, loops: dict, workload) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "phases": {name: {"passes": len(loop.pass_ns),
                          "ops": loop.attempted,
                          "op_samples": len(loop.op_ns)}
                   for name, loop in loops.items()},
        "traced_passes": workload.traced_passes if args.trace else 0,
    }


def _named_report(name: str, loop: Loop,
                  op_ns: list[float]) -> list[tuple[str, float, str, int]]:
    """The workload's own metric names: (name, value, unit, samples)."""
    seconds = sum(op_ns) / 1e9
    rows = [("error_rate", loop.failed / max(1, loop.attempted), "ratio",
             loop.attempted)]
    ops = len(op_ns)
    p50 = percentile(op_ns, 50) / 1e6
    p95 = percentile(op_ns, 95) / 1e6
    if name == "conformance":
        rows += [("conformance.cases_per_s", ops / seconds, "1/s", ops),
                 ("conformance.case_ms_p50", p50, "ms", ops),
                 ("conformance.case_ms_p95", p95, "ms", ops)]
    elif name == "cosim":
        rows += [("cosim.packets_per_s", loop.domain / seconds, "1/s",
                  loop.domain),
                 ("cosim.partition_ms_p50", p50, "ms", ops)]
    elif name == "retarget":
        for group in ("cold", "warm"):
            times = [ns for ns, g in zip(op_ns, loop.op_groups)
                     if g == group]
            rows.append((f"retarget.{group}_builds_per_s",
                         len(times) / (sum(times) / 1e9), "1/s", len(times)))
            if group == "cold":
                rows.append(("retarget.cold_build_ms_p95",
                             percentile(times, 95) / 1e6, "ms", len(times)))
    elif name == "lint":
        # one lint op is one whole catalog
        rows += [("lint.catalog_s", p50 * 1e-3, "s", ops)]
    return rows


def _end_to_end(op_ns: list[float], setup_samples: list[float]) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (percentile(setup_samples, 50), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops_per_s": (len(op_ns) / (sum(op_ns) / 1e9), "1/s"),
        "op_ms_p50": (percentile(op_ns, 50) / 1e6, "ms"),
        "op_ms_p95": (percentile(op_ns, 95) / 1e6, "ms"),
    }


def _traced_phase(workload, problems: list[str]):
    """Run the workload's traced passes; returns (loop, tracer, cache)."""
    from repro.exec.cache import lowering_cache_stats

    loop = Loop(workload, problems)
    tracer = Tracer()
    cache = {"hits": 0, "misses": 0}
    snapshot = {}

    def before_op():
        tracer.current_op = loop.attempted
        snapshot.update(lowering_cache_stats())

    def after_op(_item, _output):
        stats = lowering_cache_stats()
        cache["hits"] += stats["hits"] - snapshot["hits"]
        cache["misses"] += stats["misses"] - snapshot["misses"]

    tracer.install()
    try:
        for _ in range(workload.traced_passes):
            loop.run_pass(before_op, after_op)
    finally:
        tracer.uninstall()
    return loop, tracer, cache


def _per_layer(tracer, cache: dict, traced: Loop, untraced: Loop,
               passes: int) -> dict:
    def per_pass(value):
        return value / passes

    def calls(name):
        return per_pass(tracer.calls.get(name, 0))

    def self_ms(name):
        return per_pass(tracer.self_ns.get(name, 0)) / 1e6

    def ratio(part, whole):
        return part / whole if whole else 0.0

    counts = tracer.counts
    parse_calls = tracer.calls.get("oal.parse", 0)
    ir_ops = counts["exec.ir.ops"]
    dispatches = counts["cosim.dispatches"]
    hits, misses = counts["build.store.hits"], counts["build.store.misses"]
    runs = tracer.calls.get("analysis.explorer", 0)
    untraced_pass_ns = percentile(untraced.pass_ns, 50)
    traced_pass_ns = sum(traced.pass_ns) / len(traced.pass_ns)
    metrics = {
        "oal.parse.calls": (calls("oal.parse"), "count"),
        "oal.parse.self_ms": (self_ms("oal.parse"), "ms"),
        "oal.analyze.calls": (calls("oal.analyze"), "count"),
        "oal.analyze.self_ms": (self_ms("oal.analyze"), "ms"),
        "oal.parse.unique_ratio": (
            ratio(len(tracer.parsed_bodies), per_pass(parse_calls)), "ratio"),
        "exec.lower.calls": (calls("exec.lower"), "count"),
        "exec.lower.self_ms": (self_ms("exec.lower"), "ms"),
        "exec.lower_cache.hit_ratio": (
            ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio"),
        "exec.ir.ops": (per_pass(ir_ops), "count"),
        "exec.ir.self_ms": (self_ms("exec.ir"), "ms"),
        "exec.ir.ns_per_op": (
            ratio(tracer.self_ns.get("exec.ir", 0), ir_ops), "ns"),
        "mda.compile.calls": (calls("mda.compile"), "count"),
        "mda.manifest.calls": (calls("mda.manifest"), "count"),
        "mda.manifest.self_ms": (self_ms("mda.manifest"), "ms"),
        "mda.emit_c.self_ms": (self_ms("mda.emit_c"), "ms"),
        "mda.emit_vhdl.self_ms": (self_ms("mda.emit_vhdl"), "ms"),
        "mda.interface.self_ms": (self_ms("mda.interface"), "ms"),
        "mda.artifact_bytes": (per_pass(counts["mda.artifact_bytes"]),
                               "bytes"),
        "mda.csim.self_ms": (self_ms("mda.csim"), "ms"),
        "mda.vsim.self_ms": (self_ms("mda.vsim"), "ms"),
        "marks.partition.calls": (calls("marks.partition"), "count"),
        "marks.partition.self_ms": (self_ms("marks.partition"), "ms"),
        "runtime.setup.calls": (calls("runtime.setup"), "count"),
        "runtime.setup.self_ms": (self_ms("runtime.setup"), "ms"),
        "runtime.steps": (per_pass(counts["runtime.steps"]), "count"),
        "runtime.self_ms": (self_ms("runtime.step"), "ms"),
        "cosim.dispatches": (per_pass(dispatches), "count"),
        "cosim.engine.self_ms": (self_ms("cosim.engine"), "ms"),
        "cosim.bus.grants": (per_pass(counts["cosim.bus.grants"]), "count"),
        "cosim.bus.self_ms": (self_ms("cosim.bus"), "ms"),
        "cosim.host_us_per_dispatch": (
            ratio(tracer.total_ns.get("cosim.engine", 0), dispatches) / 1e3,
            "us"),
        "build.store.hits": (per_pass(hits), "count"),
        "build.store.misses": (per_pass(misses), "count"),
        "build.store.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "build.store.get_ms": (
            per_pass(tracer.total_ns.get("build.store.get", 0)) / 1e6, "ms"),
        "build.store.put_ms": (
            per_pass(tracer.total_ns.get("build.store.put", 0)) / 1e6, "ms"),
        "build.fingerprint.calls": (calls("build.fingerprint"), "count"),
        "build.fingerprint.self_ms": (self_ms("build.fingerprint"), "ms"),
        "build.manifest_memo.hit_ratio": (
            ratio(counts["build.manifest_memo.reused"],
                  counts["build.manifest_memo.lookups"]), "ratio"),
        "analysis.explorer.runs": (per_pass(runs), "count"),
        "analysis.explorer.truncated_ratio": (
            ratio(counts["analysis.explorer.truncated"], runs), "ratio"),
        "analysis.explorer.self_ms": (self_ms("analysis.explorer"), "ms"),
        "analysis.detectors.self_ms": (self_ms("analysis.detectors"), "ms"),
        # only lint explores, and its domain count is witnessed findings
        "analysis.witness_yield": (ratio(traced.domain, runs), "ratio"),
        "xuml.wellformed.self_ms": (self_ms("xuml.wellformed"), "ms"),
        "verify.run_case.self_ms": (self_ms("verify.run_case"), "ms"),
        "trace.overhead_ratio": (traced_pass_ns / untraced_pass_ns, "ratio"),
    }
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(exist_ok=True)
    problems: list[str] = []
    workload = None
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        warm_up_problems = workload.warm_up()
        if args.setup_probe:
            if warm_up_problems:
                print("warm-up failed: " + "; ".join(warm_up_problems),
                      file=sys.stderr)
                return 1
            return 0
        setup_main_s = time.perf_counter() - _PROCESS_T0
        problems.extend(f"warm-up: {p}" for p in warm_up_problems)
        setup_wall, setup_samples = (_setup_probe_seconds(args)
                                     if args.trace == 0 else ([], []))

        # the probe runs only in the untraced timed loop: spans would
        # count its time
        host = HostSpeed() if args.trace == 0 else None
        loop = Loop(workload, problems, host)
        loops = {"timed": loop}
        tracer = None
        if args.trace == 0:
            host.start()
            try:
                loop.run_for(args.seconds)
            finally:
                host.stop()
        else:
            loop.run_for(args.seconds / 2)
            traced, tracer, cache = _traced_phase(workload, problems)
            loops["traced"] = traced
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(l.attempted for l in loops.values()) + 1
    failed = (sum(l.failed for l in loops.values())
              + (1 if warm_up_problems else 0))
    scaled_ns = loop.scaled_ns()
    if args.trace == 0:
        metrics = _end_to_end(scaled_ns, setup_samples)
    else:
        metrics = _per_layer(tracer, cache, traced, loop,
                             workload.traced_passes)
    metadata = _metadata(args, loops, workload)
    metadata["setup_main_process_s"] = setup_main_s
    metadata["setup_probe_wall_s"] = setup_wall
    if host is not None:
        metadata["host_probe"] = host.summary()
        metadata["wall_ops_per_s"] = len(loop.op_ns) / (sum(loop.op_ns) / 1e9)
    named = _named_report(args.workload, loop, scaled_ns)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          + json.dumps(metadata, sort_keys=True))
    for name, value, unit, samples in named:
        print(f"# {name} = {value:.6g} {unit} (n={samples})")
    for name, (value, unit) in metrics.items():
        samples = (f" (n={len(scaled_ns)})" if name.startswith("op_ms_")
                   else "")
        print(f"# {name} = {value:.6g} {unit}{samples}")
    for problem in problems:
        print(f"# FAILED {problem}")

    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    files = tracer.write(str(stem)) if tracer is not None else []
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"result": result, "metadata": metadata,
                   "named": [list(row) for row in named],
                   "samples": {name: {"op_ns": l.op_ns, "pass_ns": l.pass_ns}
                               for name, l in loops.items()},
                   "scaled_op_ns": scaled_ns,
                   "problems": problems, "span_files": files},
                  handle, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
