"""Unit tests for partition derivation and signal-flow discovery."""

import pytest

from repro.marks import (
    MarkSet,
    SignalFlow,
    all_partitions,
    derive_partition,
    marks_for_partition,
    signal_flows,
)
from repro.mda import ModelCompiler, build_manifest
from repro.models import CATALOG, build_model, build_packetproc_model
from repro.verify import AbstractTarget, CoSimTarget, TestCase, run_case
from repro.xuml import ModelBuilder


def model_and_component():
    model = build_packetproc_model()
    return model, model.components[0]


def operation_send_model():
    """A's state calls its operation ``kick``, whose body signals B."""
    builder = ModelBuilder("OpSend")
    component = builder.component("c")
    a = component.klass("A", "A")
    a.attr("a_id", "unique_id")
    a.attr("kicks", "integer", default=0)
    a.identifier(1, "a_id")
    a.event("A1")
    a.operation("kick", returns="integer", body=(
        "select any b from instances of B;\n"
        "generate B1 to b;\n"
        "return 1;"))
    a.state("Idle", 1)
    a.state("Kicked", 2, activity="self.kicks = self.kick();")
    a.trans("Idle", "A1", "Kicked")
    b = component.klass("B", "B")
    b.attr("b_id", "unique_id")
    b.identifier(1, "b_id")
    b.event("B1")
    b.state("Waiting", 1)
    b.state("Poked", 2)
    b.trans("Waiting", "B1", "Poked")
    return builder.build()


def kick_case():
    return (
        TestCase("kick")
        .create("a", "A", a_id=1)
        .create("b", "B", b_id=2)
        .inject("a", "A1")
        .run()
        .expect_state("b", "Poked")
    )


class TestSignalFlows:
    def test_pipeline_flows_discovered(self):
        model, component = model_and_component()
        flows = signal_flows(model, component)
        pairs = {(f.sender_class, f.receiver_class, f.event_label)
                 for f in flows}
        assert ("M", "CL", "CL1") in pairs
        assert ("CL", "CE", "CE1") in pairs
        assert ("CL", "D", "D1") in pairs
        assert ("CE", "D", "D1") in pairs
        assert ("D", "ST", "ST1") in pairs

    def test_self_flows_included(self):
        model, component = model_and_component()
        flows = signal_flows(model, component)
        assert any(f.sender_class == f.receiver_class for f in flows)

    def test_flows_deterministic_order(self):
        model, component = model_and_component()
        assert signal_flows(model, component) == signal_flows(model, component)

    @pytest.mark.parametrize("name", [entry.name for entry in CATALOG])
    def test_manifest_and_lowering_cache_agree(self, name):
        model = build_model(name)
        for component in model.components:
            assert build_manifest(model, component).flows == signal_flows(
                model, component)


class TestOperationSends:
    """A signal generated inside an operation body is a flow like any other."""

    @pytest.mark.parametrize("hardware", [("A",), ("B",)])
    def test_operation_send_crosses_the_boundary(self, hardware):
        model = operation_send_model()
        component = model.components[0]
        marks = marks_for_partition(component, hardware)
        partition = derive_partition(model, component, marks)
        assert partition.boundary_flows == (SignalFlow("A", "B", "B1"),)
        build = ModelCompiler(model).compile(marks)
        assert build.partition.boundary_flows == partition.boundary_flows
        assert run_case(kick_case(), AbstractTarget(model)).passed
        result = run_case(kick_case(), CoSimTarget(build))
        assert result.passed, result


class TestDerivePartition:
    def test_all_software_by_default(self):
        model, component = model_and_component()
        partition = derive_partition(model, component, MarkSet())
        assert partition.is_pure_software
        assert partition.boundary_flows == ()

    def test_marked_classes_go_hardware(self):
        model, component = model_and_component()
        marks = MarkSet()
        marks.set("soc.CE", "isHardware", True)
        partition = derive_partition(model, component, marks)
        assert partition.hardware_classes == ("CE",)
        assert partition.side_of("CE") == "hw"
        assert partition.side_of("M") == "sw"

    def test_boundary_is_cross_side_flows_only(self):
        model, component = model_and_component()
        marks = marks_for_partition(component, ("CE", "D"))
        partition = derive_partition(model, component, marks)
        boundary = {(f.sender_class, f.receiver_class)
                    for f in partition.boundary_flows}
        assert boundary == {("CL", "CE"), ("CL", "D"), ("D", "ST")}
        internal = {(f.sender_class, f.receiver_class)
                    for f in partition.internal_flows}
        assert ("CE", "D") in internal    # both in hardware

    def test_describe_renders(self):
        model, component = model_and_component()
        marks = marks_for_partition(component, ("CE",))
        text = derive_partition(model, component, marks).describe()
        assert "hardware: CE" in text

    def test_side_of_unknown_class_raises(self):
        model, component = model_and_component()
        partition = derive_partition(model, component, MarkSet())
        with pytest.raises(KeyError):
            partition.side_of("XX")


class TestPartitionEnumeration:
    def test_all_partitions_count(self):
        _model, component = model_and_component()
        candidates = all_partitions(component)
        assert len(candidates) == 2 ** len(component.class_keys)
        assert candidates[0] == ()

    def test_marks_for_partition_are_explicit_everywhere(self):
        _model, component = model_and_component()
        marks = marks_for_partition(component, ("CE",))
        for key in component.class_keys:
            assert marks.is_explicit(f"soc.{key}", "isHardware")

    def test_marks_for_partition_preserves_base(self):
        _model, component = model_and_component()
        base = MarkSet()
        base.set("soc.CE", "clock_mhz", 400)
        marks = marks_for_partition(component, ("CE",), base=base)
        assert marks.get("soc.CE", "clock_mhz") == 400
        assert base.get("soc.CE", "isHardware") is False   # base untouched
