"""Machine-independent optimizer.

The paper's allocator sits downstream of the IRⁿ optimizer ("our front-end
and optimizer rely on the code generator doing a good job of global
register allocation").  This package provides the classic scalar passes a
1989 optimizer would run before register allocation:

* :mod:`repro.opt.local` — block-local constant folding, copy
  propagation, and common-subexpression elimination;
* :mod:`repro.opt.dce` — global dead-code elimination (fixpoint over
  uses; side-effecting instructions are roots);
* :mod:`repro.opt.pipeline` — runs the passes to a fixed point and
  reports what changed.

All passes preserve the verifier's invariants and program semantics —
checked by differential tests over random programs.  They also *change
register pressure* (folding kills short ranges, CSE lengthens ranges),
which is why the ablation table (``repro figures ablations``) measures
their effect on spilling.
"""

from repro.opt.local import fold_constants, propagate_copies, eliminate_common_subexpressions
from repro.opt.dce import eliminate_dead_code
from repro.opt.pipeline import OptimizationReport, optimize_function, optimize_module

__all__ = [
    "fold_constants",
    "propagate_copies",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "optimize_function",
    "optimize_module",
    "OptimizationReport",
]
