"""The tracer: spans nest, self time excludes children, uninstall restores."""

from __future__ import annotations

import sys

import repro.exec.cache as exec_cache
import repro.mda.manifest as manifest
import repro.oal.parser as parser
from repro.exec import clear_lowering_cache
from repro.models import build_model
from repro.verify import check_conformance, suite_for
from tracing import Tracer


def _trace_one_case():
    clear_lowering_cache()
    model = build_model("checksum")
    case = suite_for("checksum")[0]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.current_op = 7
        report = check_conformance(model, [case])
    finally:
        tracer.uninstall()
    assert report.conformant
    return tracer


def test_uninstall_restores_every_binding_site():
    originals = (parser.parse_activity, manifest.parse_activity,
                 exec_cache.parse_activity,
                 sys.modules["repro.runtime.simulator"].Simulation.step)
    tracer = Tracer()
    tracer.install()
    assert manifest.parse_activity is not originals[1]
    assert exec_cache.parse_activity is manifest.parse_activity
    tracer.uninstall()
    assert (parser.parse_activity, manifest.parse_activity,
            exec_cache.parse_activity,
            sys.modules["repro.runtime.simulator"].Simulation.step) \
        == originals


def test_spans_nest_and_self_time_excludes_children():
    tracer = _trace_one_case()
    assert tracer.calls["mda.compile"] == 2          # C and VHDL targets
    assert tracer.calls["oal.parse"] == tracer.calls["oal.analyze"] > 0
    assert tracer.counts["exec.ir.ops"] > 0
    for name, total in tracer.total_ns.items():
        assert 0 <= tracer.self_ns[name] <= total, name
    row_of = {sid: row for row, sid in enumerate(tracer.span_id)}
    for row in range(tracer.span_count):
        assert tracer.op_id[row] == 7
        parent = tracer.parent_id[row]
        if parent >= 0:
            outer = row_of[parent]
            assert tracer.start_ns[outer] <= tracer.start_ns[row]
            assert tracer.end_ns[row] <= tracer.end_ns[outer]

    def ancestors(row):
        while tracer.parent_id[row] >= 0:
            row = row_of[tracer.parent_id[row]]
            yield tracer.names[tracer.name_id[row]]

    parse_rows = [row for row in range(tracer.span_count)
                  if tracer.names[tracer.name_id[row]] == "oal.parse"]
    assert any("mda.compile" in ancestors(row) for row in parse_rows)


def test_counts_repeat_exactly():
    first, second = _trace_one_case(), _trace_one_case()
    assert dict(first.calls) == dict(second.calls)
    assert dict(first.counts) == dict(second.counts)


def test_spans_round_trip_through_the_written_files(tmp_path):
    import json
    from array import array

    tracer = _trace_one_case()
    json_path, bin_path = tracer.write(str(tmp_path / "run"))
    header = json.loads(open(json_path).read())
    columns = {}
    with open(bin_path, "rb") as handle:
        for column in header["columns"]:
            values = array("q")
            values.fromfile(handle, header["span_count"])
            columns[column] = values
    assert columns["end_ns"] == tracer.end_ns
    assert header["names"] == tracer.names
