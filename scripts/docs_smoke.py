#!/usr/bin/env python
"""Docs smoke checks: the README quickstarts must actually run, and
every checked-in example spec must parse and simulate.

Five checks (run one by name, or all by default):

* ``quickstart`` — extract every ``python -m repro ...`` line (plus the
  ``rm -f /tmp/...`` lines that reset demo state) from the README's
  fenced ``bash`` blocks and execute it (so the CLI quickstart can
  never drift from the CLI);
* ``api`` — extract the README's fenced ``python`` blocks (the
  ``repro.api`` quickstart) and execute them (so the programmatic
  quickstart can never drift from the API);
* ``design`` — assert DESIGN.md documents trace recording (section
  14), the vectorized batch-retiming kernel (section 16), the fuzzing
  harness (section 17), the
  simulation service (section 18) and the adaptive search layer
  (section 19), and run any ``python -m repro`` lines in its fenced
  ``bash`` blocks;
* ``service`` — start an in-process ``repro serve`` instance and
  exercise the README's "Simulation as a service" claims end to end:
  cold then warm run, incremental depth override, sweep, structured
  deadlock error, graceful drain (the service quickstart is fenced as
  ``console``, so the ``quickstart`` extractor never tries to run the
  long-lived server as a one-shot command);
* ``examples`` — parse, lower, compile and simulate every
  ``examples/*.yaml`` / ``*.json`` spec through a ``repro.api``
  session.

Usage: ``python scripts/docs_smoke.py
[quickstart|api|design|service|examples]``
(run from the repository root; sets ``PYTHONPATH=src`` for children).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FENCE = re.compile(r"```bash\n(.*?)```", re.DOTALL)
PYTHON_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + extra if extra else "")
    return env


def quickstart_commands() -> list:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    commands = []
    for block in FENCE.findall(readme):
        for line in block.splitlines():
            line = line.strip()
            if line.startswith(("python -m repro", "rm -f /tmp/")):
                commands.append(line)
    return commands


def check_quickstart() -> int:
    commands = quickstart_commands()
    if not commands:
        print("FAIL: no `python -m repro` commands found in README.md")
        return 1
    failures = 0
    for command in commands:
        print(f"$ {command}")
        proc = subprocess.run(command, shell=True, cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            failures += 1
            print(f"FAIL (exit {proc.returncode}):\n{proc.stdout}"
                  f"{proc.stderr}")
    print(f"quickstart: {len(commands) - failures}/{len(commands)} "
          "commands ok")
    return 1 if failures else 0


def check_api() -> int:
    """Execute the README's fenced ``python`` blocks in one namespace
    (in order, so later blocks may build on earlier ones)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    blocks = PYTHON_FENCE.findall(readme)
    if not blocks:
        print("FAIL: no fenced python blocks found in README.md")
        return 1
    namespace: dict = {"__name__": "readme_quickstart"}
    failures = 0
    for i, block in enumerate(blocks, 1):
        try:
            exec(compile(block, f"README.md[python #{i}]", "exec"),
                 namespace)
            print(f"ok: python block #{i} ({len(block.splitlines())} "
                  "lines)")
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures += 1
            print(f"FAIL: python block #{i}: "
                  f"{type(exc).__name__}: {exc}")
    print(f"api: {len(blocks) - failures}/{len(blocks)} python blocks ok")
    return 1 if failures else 0


def check_design() -> int:
    """DESIGN.md must document how engines record into the trace
    artifact (section 14), the vectorized kernel (section 16), the
    fuzzing harness (section 17), the service (section 18) and the
    adaptive search layer (section 19), and its ``python -m repro``
    command lines (if any) must run — same drift guard the README
    gets."""
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as fh:
        design = fh.read()
    required = ["## 14. Columnar trace artifacts", "**Recording.**",
                "new_trace", "attach_payload", "add_constraint",
                "## 16. Vectorized batch retiming",
                "resimulate_batch", "--no-vectorize",
                "## 17. Coverage-guided differential fuzzing",
                "run_differential", "tests/regressions/",
                "REPRO_INJECT_COSIM_FINALITY_BUG",
                "## 18. Simulation as a service",
                "SingleFlight", "STATUS_TABLE", "/v1/meta",
                "## 19. Adaptive Pareto-guided search",
                "dominated-region pruning", "frontier polish",
                "--strategy refine", "max_evals", "round:N"]
    failures = 0
    for needle in required:
        if needle not in design:
            failures += 1
            print(f"FAIL: DESIGN.md is missing {needle!r}")
    commands = []
    for block in FENCE.findall(design):
        for line in block.splitlines():
            line = line.strip()
            if line.startswith("python -m repro"):
                commands.append(line)
    for command in commands:
        print(f"$ {command}")
        proc = subprocess.run(command, shell=True, cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            failures += 1
            print(f"FAIL (exit {proc.returncode}):\n{proc.stdout}"
                  f"{proc.stderr}")
    print(f"design: {len(required) + len(commands) - failures}/"
          f"{len(required) + len(commands)} checks ok")
    return 1 if failures else 0


def check_service() -> int:
    """The README's service claims, executed: start a server, hit the
    documented endpoints, assert the documented labels and statuses,
    drain cleanly."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import http.client
    import json

    from repro.service import serve_in_thread

    def post(port, path, doc):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            conn.request("POST", path, json.dumps(doc))
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    failures = 0

    def check(label, cond):
        nonlocal failures
        if cond:
            print(f"ok: {label}")
        else:
            failures += 1
            print(f"FAIL: {label}")

    handle = serve_in_thread(workers=4)
    try:
        status, doc = post(handle.port, "/v1/run",
                           {"design": "fig4_ex5"})
        check("cold run (200, capture=cold)",
              status == 200 and doc["capture"] == "cold"
              and doc["cycles"] > 0)
        cold_cycles = doc.get("cycles")
        status, doc = post(handle.port, "/v1/run",
                           {"design": "fig4_ex5"})
        check("warm run (capture=hot, same cycles)",
              status == 200 and doc["capture"] == "hot"
              and doc["cycles"] == cold_cycles)
        status, doc = post(handle.port, "/v1/run",
                           {"design": "fig4_ex5",
                            "depths": {"fifo2": 8}})
        check("depth override (serving=incremental)",
              status == 200 and doc["serving"] == "incremental")
        status, doc = post(handle.port, "/v1/sweep",
                           {"design": "fig4_ex5",
                            "space": ["fifo2=1:8"]})
        check("sweep (8 evaluated, pareto reported)",
              status == 200 and doc["evaluated"] == 8
              and doc["pareto"])

        def rows(points):
            return {p["depths"]["fifo2"]: (p["cycles"], p["buffer_bits"],
                                           p["source"], p["failure"])
                    for p in points}
        space = rows(doc.get("points", ()))
        status, doc = post(handle.port, "/v1/sweep",
                           {"design": "fig4_ex5",
                            "configs": [{"fifo2": 4}, {"fifo2": 8}]})
        named = rows(doc.get("points", ()))
        check("sweep by configs (the space form's points)",
              status == 200 and len(named) == 2
              and all(space.get(depth) == row
                      for depth, row in named.items()))
        status, doc = post(handle.port, "/v1/run",
                           {"design": "deadlock"})
        check("deadlock maps to 422 / exit 2",
              status == 422 and doc["type"] == "DeadlockError"
              and doc["exit_code"] == 2)
    finally:
        handle.stop()
    check("graceful drain (server thread exited)",
          not handle._thread.is_alive())
    total = 7
    print(f"service: {total - failures}/{total} checks ok")
    return 1 if failures else 0


def check_examples() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.api import Session

    examples = os.path.join(ROOT, "examples")
    specs = [entry for entry in sorted(os.listdir(examples))
             if entry.lower().endswith((".yaml", ".yml", ".json"))]
    if not specs:
        print("FAIL: no example specs found")
        return 1
    failures = 0
    for entry in specs:
        path = os.path.join(examples, entry)
        try:
            session = Session.open(path)
            result = session.run()
            print(f"ok: {entry} (design {session.name}, "
                  f"{result.cycles} cycles)")
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures += 1
            print(f"FAIL: {entry}: {type(exc).__name__}: {exc}")
    print(f"examples: {len(specs) - failures}/{len(specs)} specs ok")
    return 1 if failures else 0


def main(argv) -> int:
    which = argv[1] if len(argv) > 1 else "all"
    if which not in ("all", "quickstart", "api", "design", "service",
                     "examples"):
        print(__doc__)
        return 2
    status = 0
    if which in ("all", "quickstart"):
        status |= check_quickstart()
    if which in ("all", "api"):
        status |= check_api()
    if which in ("all", "design"):
        status |= check_design()
    if which in ("all", "service"):
        status |= check_service()
    if which in ("all", "examples"):
        status |= check_examples()
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
