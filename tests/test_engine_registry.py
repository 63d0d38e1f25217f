"""Engine registry: capability records, conformance, API stability.

The conformance suite iterates the *registry* — a newly registered
engine is automatically held to the same contract: uniform
:class:`SimulationResult` fields, and identical cycles/outputs whether
constructed through :func:`create_engine` or the pre-registry way
(direct class instantiation).
"""

from __future__ import annotations

import warnings

import pytest

import repro.api
from repro import compile_design, designs
from repro.errors import (
    UnknownEngineError,
    UnknownFifoError,
    UnsupportedDesignError,
)
from repro.sim import (
    SimulationResult,
    all_engines,
    create_engine,
    engine_names,
    get_engine,
    register_engine,
    run_engine,
    validate_depths,
)

from tests.conftest import (
    fresh_interpreter,
    make_nb_design,
    make_pipeline_design,
)

#: small, deadlock-free registry designs covering all three taxonomy
#: types (params keep the slow engines — cosim, naive — affordable)
CONFORMANCE_DESIGNS = [
    ("vector_add_stream", {"n": 64}),   # Type A
    ("fig4_ex2", {"n": 30}),            # Type B (NB retry, cyclic)
    ("fig4_ex5", {"n": 60}),            # Type C (drops under backpressure)
]

#: the engines every snapshot/conformance test expects; adding an engine
#: means updating this list (reviewed API growth), removing one is a
#: breaking change
EXPECTED_ENGINES = [
    "cosim",
    "csim",
    "lightningsim",
    "naive",
    "omnisim",
    "omnisim-threads",
]


@pytest.fixture(scope="module")
def compiled_designs():
    return {
        name: compile_design(designs.get(name).make(**params))
        for name, params in CONFORMANCE_DESIGNS
    }


# ---------------------------------------------------------------------------
# registry API


class TestRegistryApi:
    def test_engine_names_snapshot(self):
        assert engine_names() == EXPECTED_ENGINES

    def test_cli_names_exclude_non_cli_engines(self):
        names = engine_names(cli_only=True)
        assert "naive" not in names
        assert set(names) < set(EXPECTED_ENGINES)

    def test_unknown_engine_lists_known(self):
        with pytest.raises(UnknownEngineError) as exc:
            get_engine("verilator")
        assert "omnisim" in str(exc.value)
        # KeyError-compat for mapping-style callers
        with pytest.raises(KeyError):
            get_engine("verilator")

    def test_duplicate_registration_rejected(self):
        info = get_engine("omnisim")
        with pytest.raises(ValueError):
            register_engine("omnisim", info.cls)
        # replace=True is the sanctioned override
        register_engine("omnisim", info.cls, replace=True,
                        records_graph=True)
        assert get_engine("omnisim").cls is info.cls

    def test_classless_registration_rejected(self):
        with pytest.raises(ValueError):
            register_engine("broken", object)

    def test_capability_records(self):
        assert get_engine("omnisim").records_graph
        assert get_engine("omnisim").supports_depths
        assert not get_engine("csim").supports_depths
        assert not get_engine("csim").timed
        assert get_engine("lightningsim").supported_types == ("A",)
        assert not get_engine("naive").deterministic

    def test_validate_depths(self, compiled_designs):
        compiled = compiled_designs["fig4_ex5"]
        assert validate_depths(compiled, {"fifo1": 3}) == {"fifo1": 3}
        assert validate_depths(compiled, None) == {}
        with pytest.raises(UnknownFifoError) as exc:
            validate_depths(compiled, {"nope": 3})
        assert "fifo1" in str(exc.value)  # message lists the real FIFOs
        with pytest.raises(ValueError):
            validate_depths(compiled, {"fifo1": 0})
        with pytest.raises(ValueError):
            validate_depths(compiled, {"fifo1": "four"})


# ---------------------------------------------------------------------------
# conformance: every registered engine, across the design registry


def _applicable(info, design_type: str) -> bool:
    return design_type in info.supported_types


class TestEngineConformance:
    @pytest.mark.parametrize("design_name,params", CONFORMANCE_DESIGNS,
                             ids=[d for d, _ in CONFORMANCE_DESIGNS])
    def test_uniform_result_and_pre_registry_equality(
            self, compiled_designs, design_name, params):
        compiled = compiled_designs[design_name]
        design_type = designs.get(design_name).design_type
        for info in all_engines():
            if not _applicable(info, design_type):
                with pytest.raises(UnsupportedDesignError):
                    create_engine(info.name, compiled).run()
                continue
            if not info.deterministic and design_type != "A":
                continue  # scheduling-dependent results by design
            result = create_engine(info.name, compiled).run()
            # -- uniform result shape, every engine
            assert isinstance(result, SimulationResult)
            assert result.design_name == compiled.name
            assert result.simulator == info.cls.name
            assert isinstance(result.cycles, int)
            assert isinstance(result.scalars, dict)
            # every design here produces *some* functional output
            assert (result.scalars or result.buffers
                    or result.axi_memories)
            assert result.stats.events >= 0
            assert result.execute_seconds >= 0.0
            # -- capability record matches observed behaviour
            if info.timed:
                assert result.cycles > 0
            else:
                assert result.cycles == 0
            # -- the recording engines attach the one replay handle
            assert (result.trace is not None) == (
                info.name in ("omnisim", "omnisim-threads",
                              "lightningsim"))
            assert result.graph is result.trace
            if info.records_graph:
                assert result.trace.node_count == result.stats.events
                assert result.fifo_channels
            if not info.deterministic:
                continue
            # -- same numbers as the pre-registry construction path
            direct = info.cls(compiled).run()
            assert direct.cycles == result.cycles
            assert direct.scalars == result.scalars
            assert direct.buffers == result.buffers
            assert direct.failure == result.failure

    def test_cycle_accurate_engines_agree(self, compiled_designs):
        """All cycle-accurate engines report identical cycles (the
        registry-level restatement of the paper's Fig. 8(a))."""
        for design_name, compiled in compiled_designs.items():
            design_type = designs.get(design_name).design_type
            cycles = {
                info.name: create_engine(info.name, compiled).run().cycles
                for info in all_engines()
                if (info.cycle_accurate and info.deterministic
                    and _applicable(info, design_type))
            }
            assert len(set(cycles.values())) == 1, (design_name, cycles)

    def test_depth_override_through_registry(self):
        # NB dropping producer: s1's depth decides how much is dropped
        compiled = compile_design(make_nb_design())
        narrow = run_engine("omnisim", compiled, depths={"s1": 1})
        wide = run_engine("omnisim", compiled, depths={"s1": 16})
        assert narrow.cycles != wide.cycles  # backpressure is modelled
        assert (narrow.scalars["dropped"] > wide.scalars["dropped"])

    def test_unsupported_depths_warn_and_annotate(self, compiled_designs):
        compiled = compiled_designs["fig4_ex5"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_engine("csim", compiled, depths={"fifo2": 4})
        dropped = [w for w in caught if "does not model FIFO depths"
                   in str(w.message)]
        assert len(dropped) == 1
        assert any("does not model FIFO depths" in w
                   for w in result.warnings)

    def test_ad_hoc_design_through_registry(self):
        compiled = compile_design(make_pipeline_design())
        result = run_engine("omnisim", compiled)
        assert result.cycles > 0
        assert result.scalars["total"] == sum(
            3 * (i + 1) for i in range(24)
        )


# ---------------------------------------------------------------------------
# API stability snapshot


class TestApiStability:
    def test_public_api_surface(self):
        assert repro.api.__all__ == [
            "BatchResult",
            "Engine",
            "EngineInfo",
            "Session",
            "SimulationResult",
            "all_engines",
            "compile_from_ref",
            "engine_names",
            "get_engine",
            "register_engine",
            "resolve_design",
            "run_many",
        ]
        for name in repro.api.__all__:
            assert hasattr(repro.api, name)

    def test_engine_registry_snapshot(self):
        assert engine_names() == EXPECTED_ENGINES
        for info in all_engines():
            # instances satisfy the structural Engine protocol; the
            # class is a real one for everyone who looks (no run()
            # needed to find out), resolved once
            assert isinstance(info.cls, type)
            assert callable(getattr(info.cls, "run"))
            # the strawman's result label predates the registry
            label = {"naive": "naive-threads"}.get(info.name, info.name)
            assert info.cls.name == label
            assert info.cls is info.cls is get_engine(info.name).cls

    def test_engines_load_on_first_read_of_cls(self):
        out = fresh_interpreter("""
import sys
import repro.sim as sim
assert sim.engine_names() == %r, sim.engine_names()
assert "cosim" in sim.engine_names(cli_only=True)
engines = {"repro.sim." + m for m in (
    "omnisim", "cosim", "csim", "lightningsim", "naive", "thread_executor")}
assert not engines & set(sys.modules), engines & set(sys.modules)
info = sim.get_engine("cosim")
assert isinstance(info.target, str) and "cls" not in vars(info)
assert info.cls.__name__ == "CoSimulator" and "cls" in vars(info)
assert engines & set(sys.modules) == {
    "repro.sim.cosim", "repro.sim.omnisim"}   # cosim builds on omnisim
print("OK")
""" % (EXPECTED_ENGINES,))
        assert out.endswith("OK\n")

    def test_reference_without_run_rejected_when_resolved(self):
        from repro.sim import EngineInfo

        with pytest.raises(ValueError, match="no run"):
            EngineInfo(name="broken", target="json:dumps").cls

    def test_lazy_package_surfaces(self):
        # PEP 562: `import repro` is the dialect + front-end; every
        # name of the three lazified packages still resolves, is
        # listed by dir() before it does, and is stored on first use
        out = fresh_interpreter("""
import sys
import repro
assert not {"repro.api", "repro.sim"} & set(sys.modules)
import repro.trace
lazy = {"repro.api.batch", "repro.exec", "repro.trace.store",
        "repro.trace.vectorized"}
import repro.api
assert not lazy & set(sys.modules), lazy & set(sys.modules)
for pkg in (repro, repro.api, repro.trace):
    assert set(dir(pkg)) >= set(pkg.__all__), pkg
    pending = [n for n in pkg.__all__ if n not in vars(pkg)]
    for name in pkg.__all__:
        getattr(pkg, name)
    assert not [n for n in pending if n not in vars(pkg)], pkg
    try:
        pkg.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError(pkg)
assert lazy <= set(sys.modules)
from repro.trace import ENV_VAR, store
assert ENV_VAR == store.ENV_VAR == "REPRO_TRACE_CACHE"
print("OK")
""")
        assert out.endswith("OK\n")

    @pytest.mark.parametrize("module", [
        "repro.analysis", "repro.api", "repro.cli", "repro.compile",
        "repro.designs", "repro.designs.dsl", "repro.dse", "repro.exec",
        "repro.frontend", "repro.fuzz", "repro.hls", "repro.interp",
        "repro.ir", "repro.runtime", "repro.service", "repro.sim",
        "repro.sim.context", "repro.sim.cosim", "repro.synthesis",
        "repro.trace", "repro.trace.columnar", "repro.trace.store",
        "repro.trace.vectorized",
    ])
    def test_every_package_imports_first(self, module):
        # `import repro` no longer imports everything, so no package
        # may lean on another having been loaded before it (the trace
        # artifact reads repro.sim's result types; repro.sim reaches the
        # artifact only while an engine runs, never at import)
        fresh_interpreter(f"import {module}")

