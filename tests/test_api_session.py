"""The ``repro.api.Session`` facade: open forms, caching, validation,
analysis delegation, and the design-reference resolution shared with
pool workers."""

from __future__ import annotations

import os
import warnings

import pytest

from repro import compile_design, designs
from repro.api import Session, compile_from_ref, resolve_design
from repro.errors import (
    UnknownDesignError,
    UnknownEngineError,
    UnknownFifoError,
)
from tests.conftest import make_nb_design, make_pipeline_design

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")
FIG4_EX1_SPEC = os.path.join(EXAMPLES, "fig4_ex1.yaml")


class TestOpenForms:
    def test_open_registry_name(self):
        session = Session.open("fig4_ex5")
        assert session.name == "fig4_ex5"
        assert session.design_ref == ("registry", "fig4_ex5", {})
        assert session.spec is designs.get("fig4_ex5")

    def test_open_group_alias(self):
        session = Session.open("typea_large", n=64)
        assert session.name == "vector_add_stream"
        assert session.design_ref == ("registry", "typea_large", {"n": 64})
        assert session.params == {"n": 64}

    def test_open_spec_path(self):
        pytest.importorskip("yaml")
        session = Session.open(FIG4_EX1_SPEC)
        assert session.design_ref[0] == "specfile"
        assert session.run().cycles > 0

    def test_open_design_object(self):
        session = Session.open(make_pipeline_design())
        assert session.design_ref[0] == "compiled"
        assert session.spec is None
        assert session.run().scalars["total"] > 0

    def test_open_compiled_design(self):
        compiled = compile_design(make_pipeline_design())
        session = Session.open(compiled)
        assert session.compiled is compiled

    def test_open_design_spec(self):
        session = Session.open(designs.get("fig4_ex5"), n=50)
        assert session.name == "fig4_ex5"
        assert session.run().cycles > 0

    def test_unknown_name_fails_eagerly(self):
        with pytest.raises(UnknownDesignError) as exc:
            Session.open("no_such_design")
        assert "typea_large" in str(exc.value)  # hint lists aliases

    def test_params_with_built_design_rejected(self):
        with pytest.raises(TypeError):
            Session.open(make_pipeline_design(), n=100)

    def test_nonsense_design_rejected(self):
        with pytest.raises(TypeError):
            Session.open(42)

    def test_constructor_equals_open(self):
        assert Session("fig4_ex5").name == Session.open("fig4_ex5").name


class TestCaching:
    def test_compiled_is_cached(self):
        session = Session.open("fig4_ex5")
        assert session.compiled is session.compiled

    def test_compile_is_lazy(self):
        session = Session.open("fig4_ex5")
        assert session._compiled is None  # name resolution didn't compile
        session.run()
        assert session._compiled is not None

    def test_baseline_cached_per_executor(self):
        """One baseline per session, captured with the session's
        executor; a session on the other executor has its own."""
        session = Session.open("fig4_ex5", n=60)
        base = session.baseline()
        assert session.baseline() is base and session.has_baseline()
        interp = Session.open("fig4_ex5", n=60, executor="interp")
        assert not interp.has_baseline()
        other = interp.baseline()
        assert other is not base and other.cycles == base.cycles
        assert (other.trace.executor, base.trace.executor) \
            == ("interp", "compiled")
        assert session.baseline(refresh=True) is not base
        assert session.trace is session.baseline().trace

    def test_close_drops_caches(self):
        with Session.open("fig4_ex5", n=60) as session:
            compiled = session.compiled
            session.baseline()
        assert session._compiled is None
        assert not session.has_baseline()
        # still usable after close: artifacts rebuild
        assert session.compiled is not compiled
        assert session.run().cycles > 0


class TestPlainRunsReplay:
    def test_identity_resimulate_needs_no_second_capture(
            self, monkeypatch):
        """Every OmniSim result carries its replay handle: replaying a
        plain ``run()`` re-runs no engine and derives nothing."""
        from repro.sim import get_engine

        session = Session.open("fig4_ex5", n=60)
        result = session.run()
        runs = []
        cls = get_engine("omnisim").cls
        real = cls.run
        monkeypatch.setattr(
            cls, "run", lambda self: runs.append(self) or real(self))
        inc = result.trace.resimulate(dict(result.trace.depths))
        assert inc.cycles == result.cycles
        assert inc.module_end_times == result.module_end_times
        assert result.trace.resimulate({}).cycles == result.cycles
        assert runs == []


class TestRunValidation:
    def test_unknown_fifo_clean_error(self):
        session = Session.open("fig4_ex5")
        with pytest.raises(UnknownFifoError) as exc:
            session.run(depths={"bogus": 4})
        message = str(exc.value)
        assert "bogus" in message and "fifo1" in message

    def test_unknown_fifo_clean_error_for_spec_path(self):
        pytest.importorskip("yaml")
        session = Session.open(FIG4_EX1_SPEC)
        with pytest.raises(UnknownFifoError):
            session.run(depths={"bogus": 4})

    def test_unknown_engine(self):
        with pytest.raises(UnknownEngineError):
            Session.open("fig4_ex5").run(engine="verilator")

    def test_csim_depths_become_warning(self):
        session = Session.open("fig4_ex5", n=50)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = session.run(engine="csim", depths={"fifo2": 4})
        assert any("does not model FIFO depths" in str(w.message)
                   for w in caught)
        assert any("does not model FIFO depths" in w
                   for w in result.warnings)

    def test_session_default_executor(self):
        session = Session.open("fig4_ex5", n=50, executor="interp")
        compiled_default = Session.open("fig4_ex5", n=50)
        assert (session.run().cycles == compiled_default.run().cycles)


class TestAnalysisDelegation:
    def test_classify(self):
        assert Session.open("fig4_ex5").classify().design_type == "C"

    def test_report_rows(self):
        rows = Session.open("fig4_ex5").report()
        assert {row["module"] for row in rows} == {
            m.name for m in Session.open("fig4_ex5").compiled.modules
        }
        for row in rows:
            assert set(row) == {"module", "blocks", "fsm_states",
                                "static_latency"}

    def test_resimulate_matches_fresh_run(self):
        session = Session.open(make_nb_design())
        inc = session.resimulate({"s1": 2})  # declared depth: no change
        assert inc.cycles == session.baseline().cycles
        with pytest.raises(UnknownFifoError):
            session.resimulate({"bogus": 2})

    def test_sweep_delegates_to_dse(self):
        session = Session.open("fig4_ex5", n=60)
        sweep = session.sweep(["fifo2=2:5"])
        assert sweep.evaluated == 4
        assert sweep.design == "fig4_ex5"
        # the sweep reused the session's cached baseline as its capture
        assert sweep.base_cycles == session.baseline().cycles
        assert sweep.params == {"n": 60}

    def test_explore_rejects_params_with_session(self):
        from repro.dse import explore

        session = Session.open("fig4_ex5", n=60)
        # silently sweeping the session's original params while
        # reporting the caller's would be wrong twice over
        with pytest.raises(TypeError):
            explore(session, ["fifo2=2:5"], params={"n": 3})


class TestDesignRefs:
    def test_registry_ref_roundtrip(self):
        ref, compile_fn, spec = resolve_design("fig4_ex5", {"n": 40})
        assert ref == ("registry", "fig4_ex5", {"n": 40})
        assert spec is designs.get("fig4_ex5")
        assert compile_from_ref(ref).name == compile_fn().name == "fig4_ex5"

    def test_compiled_ref_roundtrip(self):
        compiled = compile_design(make_pipeline_design())
        ref, compile_fn, spec = resolve_design(compiled)
        assert ref == ("compiled", compiled)
        assert compile_from_ref(ref) is compiled
        assert spec is None

    def test_specfile_ref_roundtrip(self):
        pytest.importorskip("yaml")
        ref, _compile_fn, spec = resolve_design(FIG4_EX1_SPEC)
        assert ref[0] == "specfile"
        assert compile_from_ref(ref).name == spec.name

    def test_bad_ref_tag(self):
        with pytest.raises(ValueError):
            compile_from_ref(("nonsense", "x"))
