"""OmniSim reproduction: C-speed, RTL-accurate simulation for HLS designs.

Public API tour::

    from repro import hls
    from repro.api import Session

    @hls.kernel
    def producer(...): ...

    design = hls.Design("example")
    ...
    session = Session.open(design)       # names/spec paths work too
    result = session.run()               # OmniSim, RTL-accurate cycles
    print(result.cycles, result.scalars)

:mod:`repro.api` is the stable programmatic surface (sessions, the
engine registry, batched ``run_many``); the lower layers (``hls``,
``compile_design``, ``repro.sim``) stay importable for tools that manage
compiled designs themselves.  See README.md for the full walkthrough and
DESIGN.md for the system map.
"""

from importlib import import_module

from . import errors, hls
from .compile import CompiledDesign, CompiledModule, compile_design

__version__ = "1.10.0"


def __getattr__(name):
    # PEP 562: ``repro.api`` (sessions, engines, batch runs) loads on
    # first use; ``import repro`` alone is the HLS dialect and the
    # front-end.  The import binds ``repro.api``: the hook runs once.
    if name == "api":
        return import_module(f"{__name__}.api")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "api"})


__all__ = [
    "CompiledDesign",
    "CompiledModule",
    "api",
    "compile_design",
    "errors",
    "hls",
    "__version__",
]
