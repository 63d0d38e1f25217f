"""Frame-dropping video pipeline: Type C design + FIFO sizing with
incremental re-simulation.

A camera produces frames at a fixed rate; the encoder is slower.  A
non-blocking write lets the pipeline *drop* frames under backpressure
instead of stalling the camera — the paper's motivating real-time example
(section 2.2.1).  Only OmniSim can tell you how many frames actually
survive for a given FIFO depth; C-sim claims all of them do.

The sizing loop then uses incremental re-simulation (paper 7.2) to sweep
queue depths: configurations whose recorded query outcomes stay valid are
re-timed in microseconds; the first depth that changes drop behaviour
triggers a full re-simulation.

Run:  python examples/video_pipeline.py
"""

from repro import compile_design, hls
from repro.errors import ConstraintViolation
from repro.sim import run_engine

FRAMES = 400


@hls.kernel
def camera(n: hls.Const(), out: hls.StreamOut(hls.i32),
           dropped: hls.ScalarOut(hls.i32)):
    drops = 0
    for frame in range(n):
        hls.pipeline(ii=3)              # one frame every 3 cycles
        if out.write_nb(frame):
            pass
        else:
            drops += 1                  # drop under backpressure
    out.write(0 - 1)                    # end-of-stream marker
    dropped.set(drops)


@hls.kernel
def encoder(inp: hls.StreamIn(hls.i32),
            encoded: hls.ScalarOut(hls.i32),
            checksum: hls.ScalarOut(hls.i32)):
    count = 0
    check = 0
    while True:
        hls.pipeline(ii=7)              # encoding takes 7 cycles per frame
        frame = inp.read()
        if frame < 0:
            break
        count += 1
        check = (check * 31 + frame) % 65521
    encoded.set(count)
    checksum.set(check)


def build(depth: int) -> hls.Design:
    design = hls.Design("video_pipeline")
    queue = design.stream("queue", hls.i32, depth=depth)
    dropped = design.scalar("dropped", hls.i32)
    encoded = design.scalar("encoded", hls.i32)
    checksum = design.scalar("checksum", hls.i32)
    design.add(camera, n=FRAMES, out=queue, dropped=dropped)
    design.add(encoder, inp=queue, encoded=encoded, checksum=checksum)
    return design


def main() -> None:
    compiled = compile_design(build(depth=4))

    csim = run_engine("csim", compiled)
    omni = run_engine("omnisim", compiled)
    print(f"C-sim   : encoded={csim.scalars['encoded']} "
          f"dropped={csim.scalars['dropped']}   <- infinite FIFOs lie")
    print(f"OmniSim : encoded={omni.scalars['encoded']} "
          f"dropped={omni.scalars['dropped']} "
          f"cycles={omni.cycles}  <- hardware truth")
    assert csim.scalars["dropped"] == 0
    assert omni.scalars["dropped"] > 0

    print("\nFIFO sizing sweep (incremental where constraints allow):")
    base = omni
    for depth in (4, 6, 8, 12, 16, 32, 64, 128):
        try:
            incremental = base.trace.resimulate({"queue": depth})
            print(f"  depth {depth:3d}: cycles={incremental.cycles}  "
                  f"[incremental, {incremental.seconds * 1e3:.2f} ms]")
        except ConstraintViolation:
            fresh_compiled = compile_design(build(depth))
            fresh = run_engine("omnisim", fresh_compiled)
            base = fresh
            print(f"  depth {depth:3d}: cycles={fresh.cycles}  "
                  f"dropped={fresh.scalars['dropped']}  "
                  f"[constraints changed -> full re-simulation]")

    # Frame survival is governed by the rate mismatch (3 vs 7 cycles), not
    # by the queue: only an encoder upgrade fixes it.  OmniSim lets you
    # learn that without touching RTL.
    print("\nDropping persists at any depth: the encoder (II=7) is the")
    print("bottleneck against a camera frame every 3 cycles.")


if __name__ == "__main__":
    main()
