"""The one IR evaluator — every executor runs actions through this.

:class:`IRExecutor` evaluates the lowered action IR of :mod:`.ir`
against a *host*: the object that owns instances, links, signals and
bridges.  The abstract runtime (:class:`repro.runtime.Simulation`), the
generated-architecture simulators (:class:`repro.mda.TargetMachine` and
its csim/vsim/cosim subclasses) and ad-hoc test harnesses are all hosts;
none of them contains action semantics of its own anymore.  OAL action
semantics exist in exactly one place — here — so "the three executors
disagree on what an action means" is a bug that can no longer be
written.

Evaluation is closure-compiled.  :func:`compile_block` turns an IR block
into nested Python closures once, on the block's first :meth:`run`: a
statement or expression becomes a direct call, operators are chosen at
compile time, and literal and variable operands are fused into the
binary operator that reads them.  The closures are pure functions of
the block.  Everything that belongs to one execution — host, error
constructors, locals, the op counter — reaches them through the
:class:`Frame`, so one compiled table serves every executor running the
same blocks.  Tables live with the blocks they compile:

* the abstract runtime's blocks belong to a cached
  :class:`repro.exec.LoweredComponent`, which owns their table, so every
  :class:`~repro.runtime.Simulation` of one model shares one compile and
  the table lives exactly as long as the lowering;
* manifest-owned blocks (csim, vsim, cosim) are compiled into a table
  private to the executor, because one machine runs one manifest.

The host is duck-typed; the surface the evaluator calls is:

* population — ``create_instance(class_key)``, ``delete_instance(h)``,
  ``instances_of(class_key)``
* attributes — ``read_attribute(h, name)``, ``write_attribute(h, name, v)``
* links — ``relate(l, r, rnum, phrase)``, ``unrelate(...)``,
  ``navigate(h, rnum, class_key, phrase)``
* signals — ``send_signal(target, class_key, label, params, sender=,
  delay=)``, ``send_creation(class_key, label, params, sender=, delay=)``
* calls — ``call_bridge(self_handle, entity, op, kwargs)``,
  ``call_class_operation(class_key, op, kwargs)``,
  ``call_instance_operation(h, op, kwargs)``
* policy — ``loop_bound`` (read on every loop, so a host may tighten it
  after construction)

Failure types are the host's dialect: the abstract runtime reports
``OALRuntimeError``/``SelectionError``, the architecture runtime reports
``ArchError``.  The evaluator takes both constructors at creation time
so the *meaning* of a failure is shared while its type stays layer-local;
that includes division and remainder by zero.
"""

from __future__ import annotations

import operator

from repro.oal.errors import OALRuntimeError

from .controlflow import BreakSignal, ContinueSignal, ReturnSignal
from .cvalues import as_instance_set, c_div, c_mod

#: Name `repro check` and diagnostics print for the unified core.
CORE_NAME = "repro.exec"


class Frame:
    """One activity/operation invocation: locals, self, params, selected.

    The frame also carries what its executor lends the compiled code:
    the host, both error constructors and the count of statements run
    so far in this invocation (``ops``).
    """

    __slots__ = ("locals", "self_handle", "params", "selected",
                 "host", "error", "selection_error", "ops")

    def __init__(self, executor: IRExecutor, self_handle, params):
        self.locals: dict[str, object] = {}
        self.self_handle = self_handle
        self.params = dict(params)
        self.selected = None
        self.host = executor.host
        self.error = executor.error
        self.selection_error = executor.selection_error
        self.ops = 0


class IRExecutor:
    """Executes lowered action IR against a host (see module docstring).

    One executor is created per host and reused for every activity,
    operation and derived-attribute body; each :meth:`run` opens a fresh
    :class:`Frame`, so reentrant calls (an operation invoked from an
    activity) nest safely.  ``ops_executed`` counts dynamically executed
    IR statements across all frames — the architecture cost model's raw
    material — and is exact whenever :meth:`run` returns or raises.

    *compiled* is the table of compiled blocks, keyed by block identity.
    Pass the table of the lowering the blocks come from to share its
    compiles; by default the executor keeps a private one.
    """

    __slots__ = ("host", "ops_executed", "error", "selection_error",
                 "_compiled")

    def __init__(self, host, error=OALRuntimeError, selection_error=None,
                 compiled: dict | None = None):
        self.host = host
        self.ops_executed = 0
        self.error = error
        self.selection_error = selection_error or error
        self._compiled = {} if compiled is None else compiled

    def run(self, block: list, self_handle, params):
        """Execute one IR block; returns the ``return`` value, if any."""
        entry = self._compiled.get(id(block))
        if entry is None:
            # the entry holds the block, so its id cannot be reused
            entry = self._compiled[id(block)] = (block, compile_block(block))
        frame = Frame(self, self_handle, params)
        try:
            entry[1](frame)
        except ReturnSignal as ret:
            return ret.value
        except (BreakSignal, ContinueSignal):  # pragma: no cover - analyzer prevents
            raise self.error("break/continue escaped its loop") from None
        except _ZeroDivisor as exc:
            raise self.error(exc.args[0]) from None
        finally:
            self.ops_executed += frame.ops
        return None


class _ZeroDivisor(Exception):
    """A zero divisor, on its way to :meth:`IRExecutor.run`.

    The operator functions have no frame, so they cannot construct the
    host's error; ``run`` converts this into it with the same message.
    """


def _divide(left, right):
    if isinstance(left, int) and isinstance(right, int):
        if right == 0:
            raise _ZeroDivisor("integer division by zero")
        return c_div(left, right)
    if right == 0:
        raise _ZeroDivisor("division by zero")
    return left / right


def _remainder(left, right):
    if right == 0:
        raise _ZeroDivisor("integer remainder by zero")
    return c_mod(left, right)


_UNARY = {
    "-": operator.neg,
    "not": operator.not_,
    "cardinality": lambda value: len(as_instance_set(value)),
    "empty": lambda value: len(as_instance_set(value)) == 0,
    "not_empty": lambda value: len(as_instance_set(value)) != 0,
}

_BINARY = {
    "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _divide, "%": _remainder,
}

_LITERALS = ("int", "real", "str", "bool")


def _unassigned(frame: Frame, name: str):
    return frame.error(f"variable {name!r} read before assignment")


def _empty_reference(frame: Frame):
    return frame.error("empty instance reference")


def _fails(message: str):
    """Code for IR no lowering emits: raises the host's error when run."""
    def fail(frame):
        raise frame.error(message)
    return fail


# -- blocks and statements -----------------------------------------------------


def compile_block(block: list):
    """Compile an IR block to ``fn(frame)``; each statement counts one op."""
    steps = tuple(_compile_stmt(stmt) for stmt in block)

    def run_block(frame):
        for step in steps:
            frame.ops += 1
            step(frame)
    return run_block


def _compile_stmt(stmt: list):
    compiler = _STATEMENT_COMPILERS.get(stmt[0])
    if compiler is None:
        return _fails(f"unknown IR statement {stmt[0]!r}")
    return compiler(stmt)


def _compile_assign_var(stmt):
    name = stmt[1]
    value = _compile_expr(stmt[2])

    def assign_var(frame):
        frame.locals[name] = value(frame)
    return assign_var


def _compile_assign_attr(stmt):
    target, attribute = _compile_expr(stmt[1]), stmt[2]
    value = _compile_expr(stmt[3])

    def assign_attr(frame):
        handle = target(frame)
        if handle is None:
            raise _empty_reference(frame)
        frame.host.write_attribute(handle, attribute, value(frame))
    return assign_attr


def _compile_create(stmt):
    name, class_key = stmt[1], stmt[2]

    def create(frame):
        frame.locals[name] = frame.host.create_instance(class_key)
    return create


def _compile_delete(stmt):
    target = _compile_expr(stmt[1])

    def delete(frame):
        handle = target(frame)
        if handle is None:
            raise _empty_reference(frame)
        frame.host.delete_instance(handle)
    return delete


def _compile_filter(where):
    """``fn(frame, handles) -> tuple`` keeping the handles *where* holds."""
    if where is None:
        return lambda frame, handles: tuple(handles)
    condition = _compile_expr(where)

    def keep(frame, handles):
        kept = []
        outer = frame.selected
        try:
            for handle in tuple(handles):
                frame.selected = handle
                if condition(frame):
                    kept.append(handle)
        finally:
            frame.selected = outer
        return tuple(kept)
    return keep


def _compile_select_extent(stmt):
    name, many, class_key = stmt[1], stmt[2], stmt[3]
    keep = _compile_filter(stmt[4])

    def select_extent(frame):
        handles = keep(frame, frame.host.instances_of(class_key))
        if many:
            frame.locals[name] = handles
        else:
            frame.locals[name] = handles[0] if handles else None
    return select_extent


def _compile_select_related(stmt):
    name, many = stmt[1], stmt[2]
    start = _compile_expr(stmt[3])
    hops = tuple(tuple(hop) for hop in stmt[4])
    keep = _compile_filter(stmt[5])

    def select_related(frame):
        first = start(frame)
        current = () if first is None else (first,)
        navigate = frame.host.navigate
        for class_key, number, phrase in hops:
            gathered: set[int] = set()
            for handle in current:
                gathered.update(navigate(handle, number, class_key, phrase))
            current = tuple(sorted(gathered))
        current = keep(frame, current)
        if many:
            frame.locals[name] = current
            return
        if len(current) > 1:
            raise frame.selection_error(
                f"select one {name}: navigation produced "
                f"{len(current)} instances")
        frame.locals[name] = current[0] if current else None
    return select_related


def _compile_link(stmt, method: str):
    left, right = _compile_expr(stmt[1]), _compile_expr(stmt[2])
    number, phrase = stmt[3], stmt[4]

    def link(frame):
        left_handle = left(frame)
        if left_handle is None:
            raise _empty_reference(frame)
        right_handle = right(frame)
        if right_handle is None:
            raise _empty_reference(frame)
        getattr(frame.host, method)(left_handle, right_handle, number, phrase)
    return link


def _compile_arguments(arguments):
    """``fn(frame) -> dict`` evaluating ``[[name, expr], ...]`` in order."""
    compiled = tuple((name, _compile_expr(value)) for name, value in arguments)
    return lambda frame: {name: value(frame) for name, value in compiled}


def _compile_generate(stmt):
    label, class_key = stmt[1], stmt[2]
    arguments = _compile_arguments(stmt[3])
    target = None if stmt[4] is None else _compile_expr(stmt[4])
    delay = None if stmt[5] is None else _compile_expr(stmt[5])

    def generate(frame):
        params = arguments(frame)
        wait = 0 if delay is None else int(delay(frame))
        if target is None:
            frame.host.send_creation(class_key, label, params,
                                     sender=frame.self_handle, delay=wait)
            return
        handle = target(frame)
        if handle is None:
            raise _empty_reference(frame)
        frame.host.send_signal(handle, class_key, label, params,
                               sender=frame.self_handle, delay=wait)
    return generate


def _compile_if(stmt):
    branches = tuple((_compile_expr(cond), compile_block(body))
                     for cond, body in stmt[1])
    orelse = None if stmt[2] is None else compile_block(stmt[2])

    def if_chain(frame):
        for condition, body in branches:
            if condition(frame):
                body(frame)
                return
        if orelse is not None:
            orelse(frame)
    return if_chain


def _compile_while(stmt):
    condition, body = _compile_expr(stmt[1]), compile_block(stmt[2])

    def while_loop(frame):
        guard = 0
        bound = frame.host.loop_bound
        while condition(frame):
            guard += 1
            if guard > bound:
                raise frame.error(f"while loop exceeded {bound} iterations")
            try:
                body(frame)
            except BreakSignal:
                break
            except ContinueSignal:
                continue
    return while_loop


def _compile_foreach(stmt):
    name = stmt[1]
    iterable, body = _compile_expr(stmt[2]), compile_block(stmt[3])

    def foreach(frame):
        for handle in iterable(frame):
            frame.locals[name] = handle
            try:
                body(frame)
            except BreakSignal:
                break
            except ContinueSignal:
                continue
    return foreach


def _raise_break(frame):
    raise BreakSignal


def _raise_continue(frame):
    raise ContinueSignal


def _compile_return(stmt):
    value = _constant(None) if stmt[1] is None else _compile_expr(stmt[1])

    def return_value(frame):
        raise ReturnSignal(value(frame))
    return return_value


_STATEMENT_COMPILERS = {
    "assign_var": _compile_assign_var,
    "assign_attr": _compile_assign_attr,
    "create": _compile_create,
    "delete": _compile_delete,
    "select_extent": _compile_select_extent,
    "select_related": _compile_select_related,
    "relate": lambda stmt: _compile_link(stmt, "relate"),
    "unrelate": lambda stmt: _compile_link(stmt, "unrelate"),
    "generate": _compile_generate,
    "if": _compile_if,
    "while": _compile_while,
    "foreach": _compile_foreach,
    "break": lambda stmt: _raise_break,
    "continue": lambda stmt: _raise_continue,
    "return": _compile_return,
    "exprstmt": lambda stmt: _compile_expr(stmt[1]),
}


# -- expressions ----------------------------------------------------------------


def _compile_expr(ir: list):
    compiler = _EXPRESSION_COMPILERS.get(ir[0])
    if compiler is None:
        return _fails(f"unknown IR expression {ir[0]!r}")
    return compiler(ir)


def _constant(value):
    return lambda frame: value


def _compile_var(ir):
    name = ir[1]

    def var(frame):
        try:
            return frame.locals[name]
        except KeyError:
            raise _unassigned(frame, name) from None
    return var


def _compile_param(ir):
    name = ir[1]

    def param(frame):
        try:
            return frame.params[name]
        except KeyError:
            raise frame.error(
                f"event carries no parameter {name!r}") from None
    return param


def _compile_attr(ir):
    attribute = ir[2]
    if ir[1][0] == "self":
        def self_attr(frame):
            handle = frame.self_handle
            if handle is None:
                raise _empty_reference(frame)
            return frame.host.read_attribute(handle, attribute)
        return self_attr
    target = _compile_expr(ir[1])

    def attr(frame):
        handle = target(frame)
        if handle is None:
            raise _empty_reference(frame)
        return frame.host.read_attribute(handle, attribute)
    return attr


def _compile_un(ir):
    op = _UNARY.get(ir[1])
    if op is None:
        return _fails(f"unknown unary operator {ir[1]!r}")
    operand = _compile_expr(ir[2])
    return lambda frame: op(operand(frame))


def _compile_bin(ir):
    op_name = ir[1]
    if op_name in ("and", "or"):
        left, right = _compile_expr(ir[2]), _compile_expr(ir[3])
        if op_name == "and":
            return lambda frame: bool(left(frame)) and bool(right(frame))
        return lambda frame: bool(left(frame)) or bool(right(frame))
    op = _BINARY.get(op_name)
    if op is None:
        return _fails(f"unknown binary operator {op_name!r}")
    left_tag, right_tag = ir[2][0], ir[3][0]
    if left_tag == "var":
        return _fuse_var_left(op, ir[2][1], ir[3])
    if right_tag in _LITERALS:
        left, constant = _compile_expr(ir[2]), ir[3][1]
        return lambda frame: op(left(frame), constant)
    if right_tag == "var":
        return _fuse_var_right(op, _compile_expr(ir[2]), ir[3][1])
    left, right = _compile_expr(ir[2]), _compile_expr(ir[3])
    return lambda frame: op(left(frame), right(frame))


def _fuse_var_left(op, name: str, right_ir: list):
    """``var <op> x``: the variable read is inlined; x is fused if a leaf."""
    if right_ir[0] in _LITERALS:
        constant = right_ir[1]

        def var_constant(frame):
            try:
                left = frame.locals[name]
            except KeyError:
                raise _unassigned(frame, name) from None
            return op(left, constant)
        return var_constant
    if right_ir[0] == "var":
        right_name = right_ir[1]

        def var_var(frame):
            local = frame.locals
            try:
                left = local[name]
                right = local[right_name]
            except KeyError as missing:
                raise _unassigned(frame, missing.args[0]) from None
            return op(left, right)
        return var_var
    right = _compile_expr(right_ir)

    def var_expr(frame):
        try:
            left = frame.locals[name]
        except KeyError:
            raise _unassigned(frame, name) from None
        return op(left, right(frame))
    return var_expr


def _fuse_var_right(op, left, name: str):
    def expr_var(frame):
        value = left(frame)
        try:
            right = frame.locals[name]
        except KeyError:
            raise _unassigned(frame, name) from None
        return op(value, right)
    return expr_var


def _compile_bridge(ir):
    entity, operation = ir[1], ir[2]
    arguments = _compile_arguments(ir[3])
    return lambda frame: frame.host.call_bridge(
        frame.self_handle, entity, operation, arguments(frame))


def _compile_classop(ir):
    class_key, operation = ir[1], ir[2]
    arguments = _compile_arguments(ir[3])
    return lambda frame: frame.host.call_class_operation(
        class_key, operation, arguments(frame))


def _compile_instop(ir):
    target, operation = _compile_expr(ir[1]), ir[2]
    arguments = _compile_arguments(ir[3])

    def instop(frame):
        handle = target(frame)
        if handle is None:
            raise _empty_reference(frame)
        return frame.host.call_instance_operation(
            handle, operation, arguments(frame))
    return instop


_EXPRESSION_COMPILERS = {
    "int": lambda ir: _constant(ir[1]),
    "real": lambda ir: _constant(ir[1]),
    "str": lambda ir: _constant(ir[1]),
    "bool": lambda ir: _constant(ir[1]),
    # enumerator name — one value space on every target
    "enum": lambda ir: _constant(ir[2]),
    "self": lambda ir: lambda frame: frame.self_handle,
    "selected": lambda ir: lambda frame: frame.selected,
    "var": _compile_var,
    "param": _compile_param,
    "attr": _compile_attr,
    "un": _compile_un,
    "bin": _compile_bin,
    "bridge": _compile_bridge,
    "classop": _compile_classop,
    "instop": _compile_instop,
}
