"""C value semantics — the arithmetic every executor must agree on.

The profile promises a model means the same thing before and after
translation, so the whole toolchain fixes one value representation:

* integer/timestamp -> ``int``; real -> ``float``; boolean -> ``bool``;
  string -> ``str``; enum -> the enumerator name (``str``);
* instance reference -> an ``int`` handle or ``None``;
* instance set -> a sorted ``tuple`` of handles.

Arithmetic follows C semantics (the software mapping target): integer
division and remainder truncate toward zero.  These two functions used
to live in the abstract runtime's interpreter and were *imported by the
target-architecture runtime* — an inverted dependency.  They now live
here, below both layers, and everything imports them from the core.
"""

from __future__ import annotations

from repro.oal.errors import OALRuntimeError


def c_div(left: int, right: int) -> int:
    """C-style integer division: truncation toward zero."""
    if type(left) is int and type(right) is int and left >= 0 and right > 0:
        return left // right    # floor and truncation agree here
    if right == 0:
        raise OALRuntimeError("integer division by zero")
    quotient = abs(left) // abs(right)
    return quotient if (left >= 0) == (right >= 0) else -quotient


def c_mod(left: int, right: int) -> int:
    """C-style remainder: sign follows the dividend."""
    if type(left) is int and type(right) is int and left >= 0 and right > 0:
        return left % right
    if right == 0:
        raise OALRuntimeError("integer remainder by zero")
    return left - c_div(left, right) * right


def as_instance_set(value) -> tuple:
    """Coerce a value to the instance-set representation.

    ``None`` (an empty instance reference) is the empty set; a single
    handle is a one-element set; a tuple passes through.  Used by the
    ``cardinality``/``empty``/``not_empty`` unary operators.
    """
    if value is None:
        return ()
    if isinstance(value, tuple):
        return value
    return (value,)
