"""Unit tests: ledger, FIFO channel, AXI port, IR printer/verifier, CLI,
the design registry's index."""

import os
import subprocess
import sys

import pytest

from repro import compile_design, hls
from repro.cli import main as cli_main
from repro.errors import SimulationError, VerificationError
from repro.ir import IRBuilder, function_to_text, verify_function
from repro.ir import types as ty
from repro.ir.function import BasicBlock, Function
from repro.ir.values import Argument, Constant
from repro.runtime.axi import AxiPort
from repro.runtime.fifo import FifoChannel
from repro.runtime.requests import FifoWrite, StartTask
from repro.sim.ledger import ModuleLedger

from tests.conftest import assert_cli_refuses, fresh_interpreter


class TestFifoChannel:
    def test_value_flow(self):
        fifo = FifoChannel("f", 2)
        assert fifo.push_value(10) == 1
        assert fifo.push_value(20) == 2
        r = fifo.assign_read_index()
        assert fifo.value_available(r)
        assert fifo.value_for(r) == 10

    def test_commit_tables(self):
        fifo = FifoChannel("f", 2)
        fifo.push_value(1)
        fifo.commit_write(1, 5)
        assert fifo.write_time(1) == 5
        assert fifo.write_time(2) is None
        fifo.assign_read_index()
        fifo.commit_read(1, 7)
        assert fifo.read_time(1) == 7

    def test_out_of_order_write_commit_raises(self):
        # A SimulationError, not a bare assert: the invariant must
        # survive ``python -O`` (which strips assert statements).
        fifo = FifoChannel("f", 2)
        fifo.push_value(1)
        fifo.push_value(2)
        with pytest.raises(SimulationError, match="out-of-order write"):
            fifo.commit_write(2, 5)

    def test_out_of_order_read_commit_raises(self):
        fifo = FifoChannel("f", 2)
        fifo.push_value(1)
        fifo.push_value(2)
        fifo.commit_write(1, 3)
        fifo.commit_write(2, 4)
        with pytest.raises(SimulationError, match="out-of-order read"):
            fifo.commit_read(2, 5)

    def test_occupancy_view(self):
        fifo = FifoChannel("f", 1)
        fifo.push_value(1)
        fifo.commit_write(1, 3)
        assert not fifo.can_read_at(3)   # strictly-after semantics
        assert fifo.can_read_at(4)
        assert not fifo.can_write_at(4)  # depth 1, not yet read
        fifo.assign_read_index()
        fifo.commit_read(1, 6)
        assert not fifo.can_write_at(6)
        assert fifo.can_write_at(7)

    def test_leftover(self):
        fifo = FifoChannel("f", 4)
        fifo.push_value(1)
        fifo.push_value(2)
        assert fifo.leftover() == 2


class TestAxiPort:
    def test_read_burst_flow(self):
        port = AxiPort("m", list(range(16)), read_latency=10)
        req = port.emit_read_req(4, 3)
        beat, value = port.emit_read_beat()
        assert (beat, value) == (0, 4)
        assert port.read_beat_ready(0) is None  # request not committed
        port.commit_read_req(req, 2)
        assert port.read_beat_ready(0) == 12
        assert port.read_beat_ready(0) == 2 + 10

    def test_read_beyond_burst_raises(self):
        port = AxiPort("m", list(range(16)))
        port.emit_read_req(0, 1)
        port.emit_read_beat()
        with pytest.raises(SimulationError):
            port.emit_read_beat()

    def test_write_resp_after_last_beat(self):
        port = AxiPort("m", [0] * 8, write_latency=4)
        req = port.emit_write_req(0, 2)
        port.emit_write_beat(7)
        port.emit_write_beat(9)
        burst = port.emit_write_resp()
        assert port.memory[:2] == [7, 9]
        assert port.write_resp_ready(burst) is None
        port.commit_write_beat(0, 10)
        port.commit_write_beat(1, 11)
        assert port.write_resp_ready(burst) == 15

    def test_resp_before_beats_raises(self):
        port = AxiPort("m", [0] * 8)
        port.emit_write_req(0, 2)
        port.emit_write_beat(1)
        with pytest.raises(SimulationError):
            port.emit_write_resp()

    def test_out_of_bounds_burst(self):
        port = AxiPort("m", [0] * 8)
        with pytest.raises(SimulationError):
            port.emit_read_req(6, 4)


class TestLedger:
    def _request(self, nominal, segment=0, base=0, pipelined=False):
        request = StartTask("m", 1, nominal)
        request.segment = segment
        request.seg_base = base
        request.pipelined = pipelined
        return request

    def test_straight_line_stall_propagates(self):
        ledger = ModuleLedger("m")
        e1 = ledger.add(self._request(5))
        e2 = ledger.add(self._request(8))
        head = ledger.head()
        assert ledger.ready_of(head) == 5
        ledger.commit(head, 9)  # stalled 4 cycles
        head = ledger.head()
        assert ledger.ready_of(head) == 12  # 8 + 4

    def test_segment_transition_elastic(self):
        ledger = ModuleLedger("m")
        # iteration 0 (base 10): event at offset 5, stalls to 20
        ledger.add(self._request(15, segment=1, base=10, pipelined=True))
        # iteration 1 (base 12): event at offset 0
        ledger.add(self._request(12, segment=2, base=12, pipelined=True))
        head = ledger.head()
        ledger.commit(head, 20)  # effective start becomes 15
        head = ledger.head()
        # E_next = 15 + (12 - 10) = 17; offset 0 -> ready 17 (< 20!)
        assert ledger.ready_of(head) == 17

    def test_commit_before_ready_raises(self):
        ledger = ModuleLedger("m")
        ledger.add(self._request(5))
        head = ledger.head()
        with pytest.raises(SimulationError, match="before ready"):
            ledger.commit(head, 3)

    def test_commit_order_enforced(self):
        ledger = ModuleLedger("m")
        ledger.add(self._request(5))
        later = ledger.add(self._request(8))
        with pytest.raises(SimulationError, match="queue head"):
            ledger.commit(later, 9)

    def test_future_commit_bound(self):
        ledger = ModuleLedger("m")
        ledger.add(self._request(15, segment=1, base=10, pipelined=True))
        ledger.head()
        # offset 5, pipelined: later iterations can run 4 cycles earlier.
        assert ledger.future_commit_bound(30) == 26
        ledger2 = ModuleLedger("m2")
        ledger2.add(self._request(15))
        ledger2.head()
        assert ledger2.future_commit_bound(30) == 30


class TestIRInfrastructure:
    def _tiny_function(self):
        arg = Argument(ty.StreamType(ty.i32), "s", "stream_out", 0)
        fn = Function("tiny", [arg])
        builder = IRBuilder(fn)
        entry = builder.new_block("entry")
        builder.set_block(entry)
        from repro.ir import instructions as ins

        builder.emit(ins.FifoWrite(arg, Constant(ty.i32, 42)))
        builder.ret()
        return fn

    def test_printer_renders(self):
        text = function_to_text(self._tiny_function())
        assert "func @tiny" in text
        assert "fifo.write" in text

    def test_verifier_accepts_wellformed(self):
        verify_function(self._tiny_function())

    def test_verifier_rejects_missing_terminator(self):
        fn = Function("bad", [])
        fn.add_block(BasicBlock("entry"))
        with pytest.raises(VerificationError):
            verify_function(fn)

    def test_verifier_rejects_foreign_branch(self):
        from repro.ir import instructions as ins

        fn = Function("bad2", [])
        block = fn.add_block(BasicBlock("entry"))
        foreign = BasicBlock("foreign")
        block.append(ins.Jump(foreign))
        with pytest.raises(VerificationError):
            verify_function(fn)


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4_ex2" in out
        assert "skynet" in out

    def test_run_small(self, capsys):
        assert cli_main(["run", "fir_filter", "--sim", "omnisim"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_run_deadlock_exit_code(self, capsys):
        assert cli_main(["run", "deadlock", "--sim", "omnisim"]) == 2
        assert "DEADLOCK" in capsys.readouterr().out

    def test_run_unsupported_exit_code(self, capsys):
        assert cli_main(
            ["run", "fig4_ex2", "--sim", "lightningsim"]
        ) == 3

    def test_classify(self, capsys):
        assert cli_main(["classify", "fig4_ex3"]) == 0
        assert "type" in capsys.readouterr().out

    def test_report(self, capsys):
        assert cli_main(["report", "fir_filter"]) == 0
        assert "static latency" in capsys.readouterr().out

    def test_depth_override(self, capsys):
        assert cli_main(["run", "fig4_ex1", "--depth", "fifo=8"]) == 0

    # What a shell sees — status 1, one stderr line naming the value —
    # not which Python mechanism produced it (tests/test_request_contract
    # drives the whole table of refused values through every door).

    def test_depth_non_integer_is_clean_exit(self):
        # Regression: used to escape as a raw ValueError traceback.
        assert_cli_refuses(["run", "fig4_ex1", "--depth", "fifo=abc"],
                           "fifo=abc")

    def test_depth_below_one_rejected(self):
        # Regression: 0/negative depths were silently accepted and blew
        # up later inside the engine.
        assert_cli_refuses(["run", "fig4_ex1", "--depth", "fifo=0"], "0")
        assert_cli_refuses(["run", "fig4_ex1", "--depth", "fifo=-3"], "-3")

    def test_depth_missing_value_rejected(self):
        assert_cli_refuses(["run", "fig4_ex1", "--depth", "fifo"], "FIFO=N")

    @pytest.mark.parametrize("argv", [
        ["dse", "fig4_ex5", "--range", "fifo2=1:4", "--timeout", "-1"],
        ["dse", "fig4_ex5", "--range", "fifo2=1:4", "--max-retries", "-1"],
        ["serve", "--max-sessions", "0"],
        ["serve", "--port", "99999"],
        ["dse", "fig4_ex5", "--range", "fifo2=1:4",
         "--json", "MISSING/out.json"],
        ["dse", "fig4_ex5", "--range", "fifo2=1:4",
         "--checkpoint", "MISSING/x.jsonl"],
    ], ids=lambda argv: argv[-2])
    def test_bad_argument_is_one_line_never_a_traceback(self, argv,
                                                        tmp_path):
        # Regression: each of these escaped as a raw ValueError /
        # OverflowError / FileNotFoundError traceback.
        argv = [arg.replace("MISSING", str(tmp_path / "missing"))
                for arg in argv]
        assert_cli_refuses(argv, "error: ")

    @pytest.mark.parametrize("unbuffered", [True, False],
                             ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["list"], ["run", "fig4_ex5"]],
                             ids=" ".join)
    def test_closed_stdout_is_not_an_error(self, argv, unbuffered):
        # Regression: `repro list | head -1`, when head wins the race,
        # printed "error: [Errno 32] Broken pipe" and exited 1.  With a
        # buffered stdout the write only fails at the flush, which must
        # happen inside main() and not at interpreter shutdown.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == ""    # no error:, Traceback, Exception ignored
        assert proc.returncode == 141           # 128 + SIGPIPE, as a shell

    @pytest.mark.parametrize("argv, env", [
        (["dse", "fig4_ex5", "--range", "fifo2=1:4"],
         {"REPRO_FAULTS": "bogus"}),     # refused by the library: typed
        (["run", "fig4_ex1", "--depth", "fifo=abc"], {}),  # CLI syntax
    ], ids=["REPRO_FAULTS", "--depth"])
    def test_a_real_shell_sees_status_1_and_one_line(self, argv, env):
        # Regression: a malformed REPRO_FAULTS was a raw ValueError
        # traceback.  Also holds conftest.shell's model of
        # ``sys.exit(main())`` to what a process really does.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env)
        proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_failure_exit_code_and_cycles(self, capsys):
        # Regression: csim's simulated SIGSEGV returned exit code 0, and
        # its legitimate 0-cycle result was hidden by ``if result.cycles``.
        assert cli_main(["run", "fig4_ex2", "--sim", "csim"]) == 4
        out = capsys.readouterr().out
        assert "failure" in out
        assert "cycles     : 0" in out


class TestStaticReportNarrative:
    def test_dynamic_designs_unknown(self):
        """The paper's motivation: static estimates are unavailable for
        designs with data-dependent control flow."""
        from repro import designs

        compiled = compile_design(designs.get("fig4_ex5").make(n=20))
        assert all(not m.static_latency.known for m in compiled.modules)

    def test_static_designs_estimated(self):
        from repro import designs

        compiled = compile_design(designs.get("fir_filter").make())
        assert all(m.static_latency.known for m in compiled.modules)


class TestRequestSlots:
    def test_all_request_types_are_slotted(self):
        """Requests are the highest-volume allocation of a run; keep them
        __dict__-free (dataclass slots=True)."""
        from repro.runtime import requests as req

        for cls in req.ALL_REQUEST_TYPES + (req.Request,):
            assert hasattr(cls, "__slots__"), cls
            instance = cls("m", 1, 0)
            assert not hasattr(instance, "__dict__"), cls


class TestRuntimeStateImages:
    """``build_runtime_state`` converts buffer/AXI init values once per
    CompiledDesign and hands every run its own copy."""

    @staticmethod
    def _in_place_design():
        from repro.hls.kernel import kernel_from_source

        d = hls.Design("in_place")
        d.add(kernel_from_source("""
def k(buf: hls.BufferOut(hls.fixed(16, 8), 4), mem: hls.AxiMaster(hls.i32)):
    for i in range(4):
        buf[i] = buf[i] + buf[i]
    mem.write_req(0, 2)
    mem.write(7)
    mem.write(7)
    mem.write_resp()
"""), buf=d.buffer("buf", hls.fixed(16, 8), 4, init=[0.5, 1, -2, 3.25]),
              mem=d.axi("mem", hls.i32, 8, init=[1, 2, 3]))
        return compile_design(d)

    def test_runs_do_not_alias_buffers_or_the_image(self):
        from repro.sim.context import build_runtime_state
        from repro.sim.registry import run_engine

        compiled = self._in_place_design()
        first = build_runtime_state(compiled)
        second = build_runtime_state(compiled)
        assert first.buffers["buf"] == second.buffers["buf"] \
            == [128, 256, -512, 832]      # raw fixed<16,8>
        assert first.buffers["buf"] is not second.buffers["buf"]
        assert first.axis["mem"].memory is not second.axis["mem"].memory
        assert first.bindings["k"]["buf"] is first.buffers["buf"]
        first.buffers["buf"][0] = 999
        first.axis["mem"].memory[0] = 999
        assert second.buffers["buf"][0] == 128
        assert second.axis["mem"].memory[:4] == [1, 2, 3, 0]
        # a design that overwrites its own inputs gives the same answer
        # on every run of one CompiledDesign
        runs = [run_engine("omnisim", compiled) for _ in range(3)]
        assert runs[0].buffers["buf"] == [1.0, 2.0, -4.0, 6.5]
        assert runs[0].axi_memories["mem"][:3] == [7, 7, 3]
        assert all(r.buffers == runs[0].buffers
                   and r.axi_memories == runs[0].axi_memories
                   for r in runs)


_REGISTRY_RACE_PROG = """
import sys, threading, time
from repro.designs import registry

names = ["branch", "deadlock", "fig4_ex5", "multicore", "fig2_timer",
         "fxp_sqrt", "matmul", "skynet"]        # one per design module
errors = []

def worker(name, delay):
    time.sleep(delay)
    try:
        if registry.get(name).name != name:
            errors.append(name)
    except BaseException as exc:
        errors.append(f"{name}: {exc!r}")

for _round in range(2):                         # first load, then loaded
    threads = [threading.Thread(target=worker, args=(name, i * 0.02 / 7))
               for i, name in enumerate(names)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    if any(thread.is_alive() for thread in threads):
        errors.append("a lookup did not finish")
print("ERRORS", errors)
print("LOADED", sorted(m.rsplit(".", 1)[1] for m in sys.modules
                       if m.startswith("repro.designs.")
                       and m != "repro.designs.registry"))
print("REGISTERED", len(registry._REGISTRY))
"""


class TestDesignRegistry:
    def test_index_equals_what_the_modules_register(self):
        import pkgutil

        from repro import designs
        from repro.designs import registry

        designs.names()                         # load everything
        observed: dict = {}
        for name, spec in registry._REGISTRY.items():
            module = spec.build.__module__.rsplit(".", 1)[1]
            observed.setdefault(module, set()).add(name)
        table = {module: names.split()
                 for module, names in registry._MODULES.items()}
        assert observed == {m: set(names) for m, names in table.items()}
        assert sum(map(len, table.values())) == len(
            registry._MODULE_OF) == 47          # no name listed twice
        # a design module missing from the table would never load
        on_disk = {info.name for info in pkgutil.iter_modules(
            designs.__path__) if not info.ispkg} - {"registry"}
        assert on_disk == set(registry._MODULES)
        for alias, target in designs.ALIASES.items():
            assert target in registry._MODULE_OF
            assert designs.get(alias) is designs.get(target)

    def test_unindexed_name_still_resolves(self, monkeypatch):
        # slow, never wrong: a name the table does not know loads all
        from repro.designs import registry

        monkeypatch.setattr(registry, "_MODULE_OF", {})
        assert registry.get("fig4_ex5").name == "fig4_ex5"
        with pytest.raises(KeyError, match="known: accumulators_asserts"):
            registry.get("nosuchdesign")

    def test_concurrent_first_lookups(self):
        # Regression: a `_loaded` flag set before the imports ran made
        # designs that exist "unknown" to every thread but the first.
        out = fresh_interpreter(_REGISTRY_RACE_PROG)
        lines = dict(ln.split(" ", 1) for ln in out.splitlines())
        assert lines["ERRORS"] == "[]"
        assert lines["LOADED"] == str(sorted(
            ["branch", "deadlock", "fig4", "multicore", "timer",
             "typea_basic", "typea_kastner", "typea_large"]))
        assert lines["REGISTERED"] == "47"
