"""``run_cold``: what a designer waits for when they run a design once.

Every pass starts a fresh interpreter (``cold_worker.py``) that runs
the 12 bench designs once each — ``Kernel.compile`` memoises per
process, so nothing else is cold — and then times
``python -m repro run fig4_ex5`` subprocesses, import included.
Capture (``interp`` + ``sim``) does most of the work; retiming none.

The design list and its order are fixed; ``--seed`` changes nothing
here (there is nothing to sample).
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import time

import harness
from calibrate import Timed, one_cpu
from layers import CAPTURE_OP_SPANS, ChainStats

#: the 12 designs of ``repro bench`` (8 typea_large + 4 Type B/C)
DESIGNS = [
    ("vector_add_stream", {}), ("flowgnn_gin", {}), ("flowgnn_gcn", {}),
    ("flowgnn_gat", {}), ("flowgnn_pna", {}), ("flowgnn_dgn", {}),
    ("inr_arch", {}), ("skynet", {}),
    ("fig4_ex5", {"n": 800}), ("fig2_timer", {"n": 800}),
    ("branch", {"n": 800}), ("multicore", {"n": 250}),
]
SMOKE_DESIGNS = [("vector_add_stream", {"n": 256}), ("fig4_ex5", {"n": 100})]
CLI_DESIGN = "fig4_ex5"
CLI_RUNS_PER_PASS = 3


def _child(args, timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=harness.child_env(),
                          cwd=harness.ROOT, capture_output=True, text=True,
                          timeout=timeout)


def _timed_child(args) -> tuple:
    """(timing, completed process) of one child kept on this CPU."""
    with one_cpu(), Timed() as timed:
        proc = _child(args)
    return timed, proc


class RunCold:
    name = "run_cold"
    #: a set-up is one CLI run (~0.3 s): cheap, so repeat it more
    setup_repeats = 7
    cold_kind = "cli"

    def __init__(self, seed: int, smoke: bool = False):
        self.designs = SMOKE_DESIGNS if smoke else DESIGNS
        self.throughput_kinds = [f"run:{n}" for n, _p in self.designs]
        self.primary_kinds = self.throughput_kinds
        #: design -> (cosim cycles, cosim scalars)
        self.refs: dict = {}
        self.sessions: dict = {}
        self.cli_cycles = None
        #: speed-normalised wall of the oracle over all designs
        self.cosim_s = 0.0

    # -- lifecycle ------------------------------------------------------

    def setup(self) -> None:
        # Cold is the point, so the only warm-up is the OS page cache.
        self._cli(None)

    def teardown(self) -> None:
        pass

    def verify(self, check) -> None:
        """Reference cycles and scalar outputs from the cycle-stepped
        oracle, once per design (plus the CLI's default-size design)."""
        from repro.api import Session

        for name, params in self.designs:
            session = self.sessions[name] = Session.open(
                name, trace_cache=False, **params)
            with Timed() as timed:
                oracle = session.run("cosim")
            self.cosim_s += timed.seconds
            self.refs[name] = (oracle.cycles,
                               json.loads(json.dumps(oracle.scalars)))
        self.cli_cycles = Session.open(
            CLI_DESIGN, trace_cache=False).run("cosim").cycles

    # -- timed pass -----------------------------------------------------

    def _worker(self, trace: bool) -> dict:
        job = json.dumps({"designs": self.designs, "trace": trace})
        proc = _child([str(harness.PERF_DIR / "cold_worker.py"), job])
        if proc.returncode != 0:
            raise RuntimeError(f"cold worker failed: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout)

    def _check_op(self, check, op: dict) -> None:
        cycles, scalars = self.refs[op["design"]]
        check.cycles(f"{op['design']} vs cosim", op["cycles"], cycles)
        check.ok(f"{op['design']} scalars vs cosim",
                 op["scalars"] == scalars)

    def _cli(self, check) -> Timed:
        """One timed CLI run, checked against the oracle."""
        timed, proc = _timed_child(["-m", "repro", "run", CLI_DESIGN])
        if check is not None:
            match = re.search(r"^cycles\s*:\s*(\d+)", proc.stdout, re.M)
            check.ok("cli exit code", proc.returncode == 0,
                     proc.stderr[-500:])
            check.cycles("cli vs cosim",
                         int(match.group(1)) if match else None,
                         self.cli_cycles)
        return timed

    def run_pass(self, rec) -> None:
        out = {"ops": ()}
        with rec.op("worker") as info:
            out = self._worker(trace=False)
            info["work"] = len(out["ops"])
        for op in out["ops"]:
            kind = f"run:{op['design']}"
            rec.add(kind, op["wall_s"], op["events"],
                    slowdown=op["slowdown"])
            rec.expect_same(kind,
                            (op["events"], op["cycles"], op["queries"]))
            self._check_op(rec.check, op)
        for _ in range(CLI_RUNS_PER_PASS):
            timed = self._cli(rec.check)
            rec.add("cli", timed.wall, 1, slowdown=timed.slowdown)

    # -- traced pass ----------------------------------------------------

    def traced(self, tr, check, seconds: float) -> dict:
        untraced: dict = {}
        chain = ChainStats(CAPTURE_OP_SPANS)
        start = time.perf_counter()
        passes = 0
        while passes < 1 or time.perf_counter() - start < seconds / 2:
            passes += 1
            for op in self._worker(trace=False)["ops"]:
                untraced.setdefault(op["design"], []).append(
                    op["wall_s"] / op["slowdown"])
            out = self._worker(trace=True)
            # re-home the worker's spans in this run's trace file
            base = len(tr.spans)
            by_op: dict = {}
            for sid, parent, op_id, name, s, e, slow in out["spans"]:
                span = [sid + base,
                        None if parent is None else parent + base,
                        f"{passes}:{op_id}", name, s, e, slow]
                tr.spans.append(span)
                by_op.setdefault(op_id, []).append(span)
            for sid, op_id, name, value in out["counters"]:
                tr.counters.append([None if sid is None else sid + base,
                                    f"{passes}:{op_id}", name, value])
            for op in out["ops"]:
                self._check_op(check, op)
                check.ok(f"{op['design']} exact counts repeat", chain.add(
                    op["design"], by_op[op["design"]], op["counts"]))
        values = chain.layer_values(
            sum(statistics.median(v) for v in untraced.values()))

        # hot probes on the sessions verify() already compiled
        csim_s = csim_capture_s = instrs = 0.0
        interp_s = compiled_s = 0.0
        for session in self.sessions.values():
            with tr.bracket():
                with tr.span("sim.capture.hot") as hot_span:
                    hot = session.run()
                with tr.span("interp.capture_interp") as interp_span:
                    session.run(executor="interp")
                with tr.span("interp.funcsim") as func_span:
                    func = session.run("csim")
            compiled_s += tr.seconds(hot_span)
            interp_s += tr.seconds(interp_span)
            if func.failure is None:
                csim_s += tr.seconds(func_span)
                csim_capture_s += tr.seconds(hot_span)
                instrs += (func.stats.instructions
                           or hot.stats.instructions)

        def child_s(args) -> float:
            return statistics.median(
                _timed_child(args)[0].seconds for _ in range(3))

        import_s = child_s(["-c", "import repro"])
        cli_s = child_s(["-m", "repro", "run", CLI_DESIGN])
        values.update({
            "interp.funcsim_s": csim_s,
            "interp.instrs_per_s": instrs / csim_s if csim_s else 0,
            "interp.compiled_vs_interp": interp_s / compiled_s,
            "sim.perfsim_ratio": csim_capture_s / csim_s if csim_s else 0,
            "sim.cosim_s": self.cosim_s,
            "sim.speedup_vs_cosim": self.cosim_s / compiled_s,
            "cli.cold_s": cli_s,
            "cli.interpreter_s": child_s(["-c", "pass"]),
            "cli.import_s": import_s,
            "cli.import_share": import_s / cli_s,
        })
        return values
