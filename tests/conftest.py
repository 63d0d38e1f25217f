"""Shared kernels and design builders for the test suite.

Kernels are defined here (a real file) so ``inspect.getsource`` works.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys

import pytest

from repro import compile_design, designs, hls

N_SMALL = 24


def fresh_interpreter(program: str, **env) -> str:
    """Run ``program`` in a new interpreter that sees this one's
    ``sys.path`` (what a process loads, and in which order, can only be
    observed in one that has loaded nothing yet); returns its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env}
    proc = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def shell(argv: list) -> tuple:
    """``(status, stdout, stderr)`` as a shell sees ``python -m repro
    ARGV``: ``sys.exit(main())`` turns ``SystemExit(message)`` — the
    CLI's own syntax and combination rules — into the message on stderr
    and status 1, the same as a library error ``main`` reports itself."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
            if isinstance(status, str):
                err.write(status + "\n")
                status = 1
    return status, out.getvalue(), err.getvalue()


def assert_cli_refuses(argv: list, names: str) -> None:
    """Status 1 and exactly one stderr line, which names the value."""
    status, _out, err = shell(argv)
    assert status == 1, (status, err)
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert names in err, err


#: Registry designs that declare a FIFO: what depth-sweep tests
#: parametrise over, instead of skipping on every FIFO-less design
#: (builds each design, no compile; test_vectorized.py holds the list
#: to what a capture records).
FIFO_DESIGNS = [name for name in designs.names()
                if designs.get(name).make().streams]


@hls.kernel
def producer_k(data: hls.BufferIn(hls.i32, N_SMALL), n: hls.Const(),
               out: hls.StreamOut(hls.i32)):
    for i in range(n):
        hls.pipeline(ii=1)
        out.write(data[i])


@hls.kernel
def consumer_k(inp: hls.StreamIn(hls.i32), n: hls.Const(),
               sum_out: hls.ScalarOut(hls.i32)):
    total = 0
    for i in range(n):
        hls.pipeline(ii=1)
        total += inp.read()
    sum_out.set(total)


@hls.kernel
def slow_consumer_k(inp: hls.StreamIn(hls.i32), n: hls.Const(),
                    ii: hls.Const(), sum_out: hls.ScalarOut(hls.i32)):
    total = 0
    for i in range(n):
        hls.pipeline(ii=8)
        total += inp.read()
    sum_out.set(total)


@hls.kernel
def scale_k(inp: hls.StreamIn(hls.i32), n: hls.Const(), factor: hls.Const(),
            out: hls.StreamOut(hls.i32)):
    for i in range(n):
        hls.pipeline(ii=1)
        out.write(inp.read() * factor)


@hls.kernel
def nb_drop_producer_k(data: hls.BufferIn(hls.i32, N_SMALL),
                       n: hls.Const(), out: hls.StreamOut(hls.i32),
                       dropped: hls.ScalarOut(hls.i32)):
    drops = 0
    for i in range(n):
        hls.pipeline(ii=2)
        if out.write_nb(data[i]):
            pass
        else:
            drops += 1
    out.write(0 - 1)
    dropped.set(drops)


@hls.kernel
def sentinel_consumer_k(inp: hls.StreamIn(hls.i32),
                        sum_out: hls.ScalarOut(hls.i32)):
    total = 0
    while True:
        value = inp.read()
        if value < 0:
            break
        total += value * 2 // 2 + value % 3 - value % 3
    sum_out.set(total)


@hls.kernel
def poll_counter_k(done: hls.StreamIn(hls.i1),
                   count_out: hls.ScalarOut(hls.i32)):
    count = 0
    while True:
        hls.pipeline(ii=1)
        ok, _ = done.read_nb()
        if ok:
            break
        count += 1
    count_out.set(count)


@hls.kernel
def finisher_k(inp: hls.StreamIn(hls.i32), n: hls.Const(),
               done: hls.StreamOut(hls.i1),
               sum_out: hls.ScalarOut(hls.i32)):
    total = 0
    for i in range(n):
        total += inp.read()
    sum_out.set(total)
    done.write(1)


def make_pipeline_design(n=N_SMALL, depth=2, factor=3,
                         slow=False) -> hls.Design:
    """producer -> scale -> consumer chain (Type A)."""
    d = hls.Design("test_pipeline")
    s1 = d.stream("s1", hls.i32, depth=depth)
    s2 = d.stream("s2", hls.i32, depth=depth)
    data = d.buffer("data", hls.i32, N_SMALL,
                    init=[i + 1 for i in range(N_SMALL)])
    total = d.scalar("total", hls.i32)
    d.add(producer_k, data=data, n=n, out=s1)
    d.add(scale_k, inp=s1, n=n, factor=factor, out=s2)
    if slow:
        d.add(slow_consumer_k, inp=s2, n=n, ii=8, sum_out=total)
    else:
        d.add(consumer_k, inp=s2, n=n, sum_out=total)
    return d


def make_nb_design(n=N_SMALL, depth=2) -> hls.Design:
    """NB dropping producer -> slow consumer (Type C)."""
    d = hls.Design("test_nb")
    s1 = d.stream("s1", hls.i32, depth=depth)
    data = d.buffer("data", hls.i32, N_SMALL,
                    init=[i + 1 for i in range(N_SMALL)])
    total = d.scalar("total", hls.i32)
    dropped = d.scalar("dropped", hls.i32)
    d.add(nb_drop_producer_k, data=data, n=n, out=s1, dropped=dropped)
    d.add(sentinel_consumer_k, inp=s1, sum_out=total)
    return d


def make_poll_design(n=N_SMALL, depth=2) -> hls.Design:
    """producer -> finisher with a polling timer (Type C, cyclic-ish)."""
    d = hls.Design("test_poll")
    s1 = d.stream("s1", hls.i32, depth=depth)
    done = d.stream("done", hls.i1, depth=2)
    data = d.buffer("data", hls.i32, N_SMALL,
                    init=[i + 1 for i in range(N_SMALL)])
    total = d.scalar("total", hls.i32)
    count = d.scalar("count", hls.i32)
    d.add(producer_k, data=data, n=n, out=s1)
    d.add(finisher_k, inp=s1, n=n, done=done, sum_out=total)
    d.add(poll_counter_k, done=done, count_out=count)
    return d


@pytest.fixture
def pipeline_compiled():
    return compile_design(make_pipeline_design())


@pytest.fixture
def nb_compiled():
    return compile_design(make_nb_design())


@pytest.fixture
def poll_compiled():
    return compile_design(make_poll_design())
