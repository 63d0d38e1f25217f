"""Front-end driver: kernel source -> verified IR function.

This is the reproduction's analogue of the HLS front-end compilation stage
(paper section 6.1): parse the design source, lower it to IR, apply the
redundant-FIFO-check elimination pass (paper section 7.3.2), and verify.
"""

from __future__ import annotations

import ast

from ..errors import CompileError
from ..hls import ports as port_decls
from ..hls.kernel import Kernel
from ..ir.function import Function
from ..ir.values import Argument
from ..ir.verifier import verify_function
from .lowering import KernelLowering
from .optimize import eliminate_dead_fifo_checks

#: Global toggle used by the ablation benchmark; normal code leaves it True.
ENABLE_DEAD_CHECK_ELIMINATION = True


def compile_kernel(kernel: Kernel,
                   const_bindings: dict | None = None) -> Function:
    """Compile ``kernel`` into an IR function.

    ``const_bindings`` supplies values for ``Const``/``In`` parameters; the
    result is specialized for them (loop bounds become literals, etc.).
    """
    const_bindings = dict(const_bindings or {})
    tree = ast.parse(kernel.source)
    if not tree.body or not isinstance(tree.body[0], ast.FunctionDef):
        raise CompileError(
            f"kernel {kernel.name}: source does not start with a function "
            "definition"
        )
    fn_def = tree.body[0]

    arguments: dict[str, Argument] = {}
    params = []
    index = 0
    for pname, decl in kernel.ports.items():
        if isinstance(decl, (port_decls.Const, port_decls.In)):
            if pname not in const_bindings:
                raise CompileError(
                    f"kernel {kernel.name}: missing constant binding for "
                    f"{pname!r}"
                )
            continue
        arg = Argument(port_decls.port_ir_type(decl), pname, decl.kind, index)
        arguments[pname] = arg
        params.append(arg)
        index += 1

    function = Function(kernel.name, params)
    lowering = KernelLowering(kernel, const_bindings, function, arguments)
    lowering.lower(fn_def.body)

    if ENABLE_DEAD_CHECK_ELIMINATION:
        eliminate_dead_fifo_checks(function)

    verify_function(function)
    return function
