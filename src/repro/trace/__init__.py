"""``repro.trace`` — the columnar, content-addressed trace-artifact layer.

The captured trace is the central artifact of the whole system ("capture
once at C speed, resimulate cheaply at RTL accuracy"); this package
makes it a first-class object shared by every producer and consumer:

* :class:`TraceArtifact` (:mod:`.columnar`) — flat struct-of-arrays
  trace with CSR static edges and the all-depth topological order built
  once and shipped with the artifact (pool workers never rebuild them),
  plus ``retime``/``resimulate`` — the one scalar retiming kernel;
* :mod:`.vectorized` — the NumPy batch-retiming kernel: whole depth
  matrices (configs x FIFOs) retimed and constraint-checked as matrix
  sweeps, with per-row scalar fallback (``REPRO_NO_NUMPY`` forces the
  pure-Python path everywhere);
* :class:`TraceStore` (:mod:`.store`) — schema-versioned, checksummed
  binary serialization and a content-addressed on-disk cache keyed by
  (design fingerprint, params, executor, schema version), so repeat
  ``Session``/CLI/DSE invocations skip recapture across processes.

Every OmniSim run attaches an artifact (``result.trace``);
``Session(trace_cache=…)`` / ``repro … --trace-cache`` /
``REPRO_TRACE_CACHE`` turn on the disk cache; ``repro trace
info|verify|gc`` manage it.
"""

from importlib import import_module

from .columnar import CONSTRAINT_KINDS, TraceArtifact, replay_trace

#: environment variable controlling the disk cache (:mod:`.store` says
#: how), spelled here so ``Session`` can test it without loading the store
ENV_VAR = "REPRO_TRACE_CACHE"

#: name -> the submodule that defines it, imported on first use (PEP
#: 562): a run that neither caches nor sweeps loads only ``columnar``
_LAZY = {name: module for module, names in {
    "store": ("SCHEMA_VERSION", "CacheEntry", "TraceStore",
              "artifact_digest", "default_cache_dir", "design_fingerprint",
              "dumps_artifact", "loads_artifact", "resolve_store"),
    "vectorized": ("DEFAULT_BATCH_SIZE", "batch_supported",
                   "numpy_available", "resimulate_batch", "retime_batch"),
}.items() for name in names}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value  # the hook runs once per name
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "CONSTRAINT_KINDS",
    "CacheEntry",
    "DEFAULT_BATCH_SIZE",
    "ENV_VAR",
    "SCHEMA_VERSION",
    "TraceArtifact",
    "TraceStore",
    "artifact_digest",
    "batch_supported",
    "default_cache_dir",
    "design_fingerprint",
    "dumps_artifact",
    "loads_artifact",
    "numpy_available",
    "replay_trace",
    "resimulate_batch",
    "resolve_store",
    "retime_batch",
]
