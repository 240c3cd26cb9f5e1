"""Unit tests for well-formedness checking."""

import pytest

from repro.xuml import ModelBuilder, Severity, WellFormednessError, check_model


def violations_of(builder, **kwargs):
    model = builder.build(check=False)
    return check_model(model, **kwargs)


def base_builder():
    builder = ModelBuilder("M")
    component = builder.component("c")
    return builder, component


class TestIdentifierRules:
    def test_identifier_with_unknown_attribute(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.attr("a", "integer")
        klass.identifier(1, "a", "ghost")
        found = violations_of(builder)
        assert any("ghost" in str(v) for v in found)

    def test_clean_identifier_passes(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.attr("a", "integer")
        klass.identifier(1, "a")
        assert violations_of(builder) == []


class TestReferentialRules:
    def test_unknown_association(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.attr("other_id", "integer", referential="R9")
        found = violations_of(builder)
        assert any("R9" in str(v) for v in found)

    def test_non_participant_formalization(self):
        builder, component = base_builder()
        component.klass("A", "A").attr("x", "integer", referential="R1")
        component.klass("B", "B")
        component.klass("C", "C")
        component.assoc("R1", ("B", "left", "1"), ("C", "right", "1"))
        found = violations_of(builder)
        assert any("does not participate" in str(v) for v in found)


class TestStateMachineRules:
    def test_transition_to_unknown_state(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.state("A", 1)
        klass.trans("A", "W1", "Ghost")
        found = violations_of(builder)
        assert any("Ghost" in str(v) for v in found)

    def test_transition_on_undeclared_event(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.state("A", 1).state("B", 2)
        klass.trans("A", "W9", "B")
        found = violations_of(builder)
        assert any("W9" in str(v) for v in found)

    def test_creation_event_on_normal_transition(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W0", creation=True)
        klass.state("A", 1).state("B", 2)
        klass.trans("A", "W0", "B")
        found = violations_of(builder)
        assert any("creation event" in str(v) for v in found)

    def test_creation_transition_on_normal_event(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.state("A", 1)
        klass.creation("W1", "A")
        found = violations_of(builder)
        assert any("not declared creation" in str(v) for v in found)

    def test_unreachable_state_is_warning_only(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.state("A", 1).state("Island", 2)
        klass.trans("A", "W1", "A")
        found = violations_of(builder)
        warnings = [v for v in found if v.severity is Severity.WARNING]
        assert any("unreachable" in str(v) for v in warnings)
        # strict mode must NOT raise on warnings
        model = builder._model
        check_model(model, strict=True)

    def test_unhandled_event_is_warning(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.event("W_UNUSED")
        klass.state("A", 1)
        klass.trans("A", "W1", "A")
        found = violations_of(builder)
        assert any("never handled" in str(v) for v in found)

    def test_events_without_machine_is_error(self):
        builder, component = base_builder()
        component.klass("Widget", "W").event("W1")
        found = violations_of(builder)
        assert any("no state machine" in str(v) for v in found)


class TestAssociationRules:
    def test_end_references_unknown_class(self):
        builder, component = base_builder()
        component.klass("A", "A")
        component.assoc("R1", ("A", "x", "1"), ("GHOST", "y", "1"))
        found = violations_of(builder)
        assert any("GHOST" in str(v) for v in found)

    def test_reflexive_same_phrase_rejected(self):
        builder, component = base_builder()
        component.klass("A", "A")
        component.assoc("R1", ("A", "same", "*"), ("A", "same", "0..1"))
        found = violations_of(builder)
        assert any("distinct phrases" in str(v) for v in found)


class TestActionRules:
    def test_syntax_error_in_activity(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.state("A", 1, activity="this is not OAL")
        klass.trans("A", "W1", "A")
        found = violations_of(builder)
        assert any("does not parse" in str(v) for v in found)

    def test_type_error_in_activity(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.attr("n", "integer")
        klass.event("W1")
        klass.state("A", 1, activity='self.n = "text";')
        klass.trans("A", "W1", "A")
        found = violations_of(builder)
        assert any("ill-typed" in str(v) for v in found)

    def test_syntax_error_in_derived_attribute(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.attr("n", "integer")
        klass.attr("next", "integer", derived="1 +")
        found = violations_of(builder)
        assert [(v.severity, v.element) for v in found] == [
            (Severity.ERROR, "c.W.next")]
        assert "derived attribute does not parse" in found[0].message
        with pytest.raises(WellFormednessError):
            builder.build()

    def test_type_error_in_derived_attribute(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.attr("n", "integer")
        klass.attr("twice", "integer", derived='"text"')
        found = violations_of(builder)
        assert [(v.severity, v.element) for v in found] == [
            (Severity.ERROR, "c.W.twice")]
        assert "derived attribute is ill-typed" in found[0].message

    def test_strict_raises_with_all_errors_listed(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.state("A", 1, activity="nonsense")
        klass.trans("A", "W1", "Ghost")
        model = builder.build(check=False)
        with pytest.raises(WellFormednessError) as excinfo:
            check_model(model, strict=True)
        assert len(excinfo.value.violations) >= 2
