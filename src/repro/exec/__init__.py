"""The execution core — one lowered action IR, one evaluator.

The paper's central claim (§4) is consistency by construction: generate
both sides of every interface from one specification and they cannot
diverge.  This package applies the same principle to the toolchain
itself.  OAL action semantics used to be implemented three times — an
AST tree-walker in the abstract runtime, an IR evaluator in the
target-architecture runtime, and a private AST walk in the signal-flow
analyzer — kept identical only by discipline.  Now there is one lowered
form (:mod:`.ir`), one evaluator (:mod:`.evaluator`), one definition of
C value semantics (:mod:`.cvalues`) and control flow (:mod:`.controlflow`),
and a content-addressed lowering cache (:mod:`.cache`) so the lowering
is paid once per model, not once per executor.

* :func:`lower_block` — AST → action IR (the only lowering)
* :class:`IRExecutor` — the only action evaluator; abstract runtime,
  csim, vsim and the co-sim engine all execute through it
* :func:`compile_block` — IR block → nested closures, compiled once on
  the block's first run.  The closures reach host and errors through
  the frame, so one table serves every executor: a
  :class:`LoweredComponent` owns the abstract runtime's table (it lives
  as long as the lowering), and each architecture machine keeps its
  own for its manifest's blocks
* :func:`lower_component` — fingerprint-keyed lowering cache
* :func:`c_div` / :func:`c_mod` — C integer semantics, imported by both
  the runtime and mda layers (the dependency no longer points upward)
"""

from .cache import (
    LoweredComponent,
    clear_lowering_cache,
    lower_component,
    lowering_cache_stats,
)
from .controlflow import BreakSignal, ContinueSignal, ReturnSignal
from .cvalues import as_instance_set, c_div, c_mod
from .evaluator import CORE_NAME, Frame, IRExecutor, compile_block
from .ir import (
    ir_op_counts,
    lower_block,
    walk_ir_generates,
    walk_ir_statements,
)

__all__ = [
    "BreakSignal",
    "CORE_NAME",
    "ContinueSignal",
    "Frame",
    "IRExecutor",
    "LoweredComponent",
    "ReturnSignal",
    "as_instance_set",
    "c_div",
    "c_mod",
    "clear_lowering_cache",
    "compile_block",
    "ir_op_counts",
    "lower_block",
    "lower_component",
    "lowering_cache_stats",
    "walk_ir_generates",
    "walk_ir_statements",
]
