"""Request taxonomy: what Func Sim threads send to the Perf Sim thread.

This mirrors the paper's Table 1 exactly.  Every hardware-visible action of
a module's functional execution becomes a :class:`Request`; requests whose
outcome depends on hardware timing (the last three rows of Table 1, plus
the FIFO status checks) are *queries* and may pause the issuing thread.

============== ==============================================  ======
Request        Description                                     Query?
============== ==============================================  ======
TraceBlock     A basic block was executed
StartTask      A dataflow task started in a new thread
FifoRead       FIFO was read from (blocking)
FifoWrite      FIFO was written to (blocking)
AxiReadReq     A read request issued on AXI
AxiWriteReq    A write request issued on AXI
AxiRead        AXI was read from
AxiWrite       AXI was written to
AxiWriteResp   A write response was issued on AXI
FifoCanRead    Query for FIFO empty                            yes
FifoCanWrite   Query for FIFO full                             yes
FifoNbRead     An NB FIFO read attempted                       yes
FifoNbWrite    An NB FIFO write attempted                      yes
EndTask        A dataflow task finished
============== ==============================================  ======

Requests are the highest-volume allocation in a simulation (one per
hardware-visible event), so every class here is slotted:
``@dataclass(slots=True)`` generates ``__slots__`` from the fields and
keeps instances ``__dict__``-free.  ``tests/test_units_misc.py`` guards
the invariant.  For the same reason the timing engines queue the
request itself as their pending-event record (no wrapper per event) and
note what they decide at emission in its ``index`` slot.

Every class carries a small-int ``code`` the OmniSim kernel dispatches
on, grouped so that range tests classify a request: the two blocking
FIFO accesses (87 % of the ``run_cold`` designs' events), the four
queries in constraint-column order (a query's on-disk constraint code
is ``code - NB_WRITE``; codes below ``NB_READ`` are the write side),
then AXI, then the task markers.  ``kind`` stays the readable name.
"""

from __future__ import annotations

from dataclasses import dataclass

FIFO_READ, FIFO_WRITE = 0, 1
NB_WRITE, CAN_WRITE, NB_READ, CAN_READ = 2, 3, 4, 5
AXI_READ, AXI_WRITE, AXI_READ_REQ, AXI_WRITE_REQ, AXI_WRITE_RESP = (
    6, 7, 8, 9, 10)
START_TASK, TRACE_BLOCK, END_TASK = 11, 12, 13


class _EngineSlot:
    """Filled by a timing engine at emission (not an ``__init__`` field:
    the Func Sim pays nothing for it): the 1-based FIFO access index of
    a blocking read/write, or the AXI request / beat / burst index."""

    __slots__ = ("index",)


@dataclass(slots=True)
class Request(_EngineSlot):
    """Base request; ``nominal`` is the zero-stall cycle computed by the
    issuing Func Sim thread from the static schedule.

    ``segment``/``seg_base``/``pipelined`` describe the timing segment the
    event belongs to (straight-line region or one pipelined-loop
    iteration); see :mod:`repro.sim.ledger` for the timing contract.
    """

    module: str
    seq: int
    nominal: int
    segment: int = 0
    seg_base: int = 0
    pipelined: bool = False

    #: Overridden by subclasses; True if resolving this request requires
    #: exact hardware timing (it may pause the thread).
    is_query = False
    #: True if the interpreter needs a response value to continue.
    needs_response = False
    kind = "request"
    code = -1


@dataclass(slots=True)
class TraceBlock(Request):
    block_label: str = ""
    kind = "trace_block"
    code = TRACE_BLOCK


@dataclass(slots=True)
class StartTask(Request):
    kind = "start_task"
    code = START_TASK


@dataclass(slots=True)
class EndTask(Request):
    kind = "end_task"
    code = END_TASK


@dataclass(slots=True)
class FifoRead(Request):
    fifo: str = ""
    kind = "fifo_read"
    code = FIFO_READ
    needs_response = True  # the value


@dataclass(slots=True)
class FifoWrite(Request):
    fifo: str = ""
    value: object = None
    kind = "fifo_write"
    code = FIFO_WRITE


@dataclass(slots=True)
class FifoNbRead(Request):
    fifo: str = ""
    kind = "fifo_nb_read"
    code = NB_READ
    is_query = True
    needs_response = True  # (ok, value)


@dataclass(slots=True)
class FifoNbWrite(Request):
    fifo: str = ""
    value: object = None
    kind = "fifo_nb_write"
    code = NB_WRITE
    is_query = True
    needs_response = True  # ok


@dataclass(slots=True)
class FifoCanRead(Request):
    fifo: str = ""
    kind = "fifo_can_read"
    code = CAN_READ
    is_query = True
    needs_response = True  # bool


@dataclass(slots=True)
class FifoCanWrite(Request):
    fifo: str = ""
    kind = "fifo_can_write"
    code = CAN_WRITE
    is_query = True
    needs_response = True  # bool


@dataclass(slots=True)
class AxiReadReq(Request):
    port: str = ""
    offset: int = 0
    length: int = 0
    kind = "axi_read_req"
    code = AXI_READ_REQ


@dataclass(slots=True)
class AxiRead(Request):
    port: str = ""
    kind = "axi_read"
    code = AXI_READ
    needs_response = True  # the beat value


@dataclass(slots=True)
class AxiWriteReq(Request):
    port: str = ""
    offset: int = 0
    length: int = 0
    kind = "axi_write_req"
    code = AXI_WRITE_REQ


@dataclass(slots=True)
class AxiWrite(Request):
    port: str = ""
    value: object = None
    kind = "axi_write"
    code = AXI_WRITE


@dataclass(slots=True)
class AxiWriteResp(Request):
    port: str = ""
    kind = "axi_write_resp"
    code = AXI_WRITE_RESP


ALL_REQUEST_TYPES = (
    TraceBlock, StartTask, EndTask,
    FifoRead, FifoWrite, FifoNbRead, FifoNbWrite,
    FifoCanRead, FifoCanWrite,
    AxiReadReq, AxiRead, AxiWriteReq, AxiWrite, AxiWriteResp,
)

QUERY_TYPES = (FifoNbRead, FifoNbWrite, FifoCanRead, FifoCanWrite)
