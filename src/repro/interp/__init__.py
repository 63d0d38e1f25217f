"""IR interpretation: functional execution with nominal timing.

Two executors share one generator protocol: the tree-walking
:class:`ModuleInterpreter` (the differential oracle) and the
generated :class:`CompiledModuleExecutor` (one specialised Python
generator per module shape; the fast path, paper section 6.1).  Engines
select between them through :func:`repro.sim.context.make_executor`.
"""

from .compiled import CompiledModuleExecutor, compile_program
from .interpreter import ModuleInterpreter
from .ops import as_python_number, convert_scalar, eval_binop, eval_cmp

__all__ = [
    "CompiledModuleExecutor",
    "ModuleInterpreter",
    "as_python_number",
    "compile_program",
    "convert_scalar",
    "eval_binop",
    "eval_cmp",
]
