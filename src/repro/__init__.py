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

from . import errors, hls
from .compile import CompiledDesign, CompiledModule, compile_design

# Set before the api import: repro.api -> trace.store reads the version
# for cache-key derivation while this module is still initializing.
__version__ = "1.10.0"

from . import api  # noqa: E402  (needs compile_design defined above)

__all__ = [
    "CompiledDesign",
    "CompiledModule",
    "api",
    "compile_design",
    "errors",
    "hls",
    "__version__",
]
