"""Type A designs 28-35 of the paper's Table 5: the large dataflow
accelerators — Vitis vector-add, five FlowGNN message-passing variants,
an INR-Arch-style gradient pipeline, and a SkyNet-style CNN backbone.

These are the designs where the paper shows OmniSim's single-pass coupled
architecture beating LightningSim's trace-then-analyze pipeline (up to
6.61x on SkyNet): the bigger the event stream, the more the extra graph
construction + longest-path passes cost.
"""

from __future__ import annotations

from .. import hls
from .registry import DesignSpec, register


def _register_a(name: str, build, description: str) -> None:
    register(DesignSpec(
        name=name, build=build, design_type="A", description=description,
        blocking="B", cyclic=False, source="table5",
    ))


# --- 28. Vector add with stream (Vitis Accel examples) ----------------------

VADD_N = 1024


@hls.kernel
def vadd_loader(mem: hls.AxiMaster(hls.i32), offset: hls.Const(),
                n: hls.Const(), out: hls.StreamOut(hls.i32)):
    mem.read_req(offset, n)
    for i in range(n):
        hls.pipeline(ii=1)
        out.write(mem.read())


@hls.kernel
def vadd_adder(a: hls.StreamIn(hls.i32), b: hls.StreamIn(hls.i32),
               n: hls.Const(), out: hls.StreamOut(hls.i32)):
    for i in range(n):
        hls.pipeline(ii=1)
        out.write(a.read() + b.read())


@hls.kernel
def vadd_writer(mem: hls.AxiMaster(hls.i32), inp: hls.StreamIn(hls.i32),
                offset: hls.Const(), n: hls.Const()):
    mem.write_req(offset, n)
    for i in range(n):
        hls.pipeline(ii=1)
        mem.write(inp.read())
    mem.write_resp()


def build_vadd(n: int = VADD_N) -> hls.Design:
    d = hls.Design("vector_add_stream")
    mem_a = d.axi("mem_a", hls.i32, VADD_N, init=list(range(VADD_N)))
    mem_b = d.axi("mem_b", hls.i32, VADD_N,
                  init=[3 * i for i in range(VADD_N)])
    mem_c = d.axi("mem_c", hls.i32, VADD_N)
    sa = d.stream("sa", hls.i32, depth=16)
    sb = d.stream("sb", hls.i32, depth=16)
    sc = d.stream("sc", hls.i32, depth=16)
    d.add(vadd_loader, instance_name="loader_a", mem=mem_a, offset=0, n=n,
          out=sa)
    d.add(vadd_loader, instance_name="loader_b", mem=mem_b, offset=0, n=n,
          out=sb)
    d.add(vadd_adder, a=sa, b=sb, n=n, out=sc)
    d.add(vadd_writer, mem=mem_c, inp=sc, offset=0, n=n)
    return d


_register_a("vector_add_stream", build_vadd,
            "AXI vector add through streams (load/compute/store)")


# --- 29-33. FlowGNN variants ---------------------------------------------------
#
# A message-passing dataflow: an edge loader streams (src, dst) pairs, a
# gather unit streams the source node's feature vector, a variant-specific
# aggregator reduces messages per destination node, and an update (MLP)
# unit transforms aggregated features.  The five paper variants differ in
# their aggregation and update arithmetic.

GNN_NODES = 64
GNN_EDGES = 256
GNN_FEATS = 8


def _gnn_graph():
    """Deterministic synthetic graph with varied in-neighbourhoods (the
    non-linear terms avoid modular aliasing that would give every node a
    single repeated source)."""
    edges = []
    for k in range(GNN_EDGES):
        edges.append((k * 7 + (k * k) // 5) % GNN_NODES)
        edges.append((k * 13 + 3 + k // 9) % GNN_NODES)
    return edges


def _gnn_features():
    return [(i * 5 + 1) % 17 for i in range(GNN_NODES * GNN_FEATS)]


@hls.kernel
def gnn_edge_loader(edges: hls.BufferIn(hls.i32, 2 * GNN_EDGES),
                    n_edges: hls.Const(),
                    src_out: hls.StreamOut(hls.i32),
                    dst_out: hls.StreamOut(hls.i32)):
    for e in range(n_edges):
        hls.pipeline(ii=2)
        src_out.write(edges[2 * e])
        dst_out.write(edges[2 * e + 1])


@hls.kernel
def gnn_gather(features: hls.BufferIn(hls.i32, GNN_NODES * GNN_FEATS),
               src_in: hls.StreamIn(hls.i32), n_edges: hls.Const(),
               feats: hls.Const(), msg_out: hls.StreamOut(hls.i32)):
    for e in range(n_edges):
        src = src_in.read()
        base = src * feats
        for f in range(feats):
            hls.pipeline(ii=1)
            msg_out.write(features[base + f])


@hls.kernel
def gnn_agg_sum(msg_in: hls.StreamIn(hls.i32),
                dst_in: hls.StreamIn(hls.i32),
                n_edges: hls.Const(), n_nodes: hls.Const(),
                feats: hls.Const(), agg_out: hls.StreamOut(hls.i32)):
    acc = hls.array(hls.i32, GNN_NODES * GNN_FEATS)
    for e in range(n_edges):
        dst = dst_in.read()
        base = dst * feats
        for f in range(feats):
            hls.pipeline(ii=2)
            acc[base + f] = acc[base + f] + msg_in.read()
    for i in range(n_nodes * feats):
        hls.pipeline(ii=1)
        agg_out.write(acc[i])


@hls.kernel
def gnn_agg_mean(msg_in: hls.StreamIn(hls.i32),
                 dst_in: hls.StreamIn(hls.i32),
                 n_edges: hls.Const(), n_nodes: hls.Const(),
                 feats: hls.Const(), agg_out: hls.StreamOut(hls.i32)):
    acc = hls.array(hls.i32, GNN_NODES * GNN_FEATS)
    degree = hls.array(hls.i32, GNN_NODES)
    for e in range(n_edges):
        dst = dst_in.read()
        degree[dst] = degree[dst] + 1
        base = dst * feats
        for f in range(feats):
            hls.pipeline(ii=2)
            acc[base + f] = acc[base + f] + msg_in.read()
    for node in range(n_nodes):
        deg = max(degree[node], 1)
        for f in range(feats):
            hls.pipeline(ii=2)
            agg_out.write(acc[node * feats + f] // deg)


@hls.kernel
def gnn_agg_max(msg_in: hls.StreamIn(hls.i32),
                dst_in: hls.StreamIn(hls.i32),
                n_edges: hls.Const(), n_nodes: hls.Const(),
                feats: hls.Const(), agg_out: hls.StreamOut(hls.i32)):
    acc = hls.array(hls.i32, GNN_NODES * GNN_FEATS)
    for i in range(n_nodes * feats):
        hls.pipeline(ii=1)
        acc[i] = 0 - (1 << 30)
    for e in range(n_edges):
        dst = dst_in.read()
        base = dst * feats
        for f in range(feats):
            hls.pipeline(ii=2)
            acc[base + f] = max(acc[base + f], msg_in.read())
    for i in range(n_nodes * feats):
        hls.pipeline(ii=1)
        agg_out.write(max(acc[i], 0))


@hls.kernel
def gnn_agg_attention(msg_in: hls.StreamIn(hls.i32),
                      dst_in: hls.StreamIn(hls.i32),
                      n_edges: hls.Const(), n_nodes: hls.Const(),
                      feats: hls.Const(), agg_out: hls.StreamOut(hls.i32)):
    # GAT-style: weight each message by a (quantized) score derived from
    # its first feature, normalize by the sum of scores per node.
    acc = hls.array(hls.i32, GNN_NODES * GNN_FEATS)
    score_sum = hls.array(hls.i32, GNN_NODES)
    for e in range(n_edges):
        dst = dst_in.read()
        base = dst * feats
        first = msg_in.read()
        score = (first & 7) + 1
        score_sum[dst] = score_sum[dst] + score
        acc[base] = acc[base] + first * score
        for f in range(1, feats):
            hls.pipeline(ii=2)
            acc[base + f] = acc[base + f] + msg_in.read() * score
    for node in range(n_nodes):
        norm = max(score_sum[node], 1)
        for f in range(feats):
            hls.pipeline(ii=2)
            agg_out.write(acc[node * feats + f] // norm)


@hls.kernel
def gnn_agg_directional(msg_in: hls.StreamIn(hls.i32),
                        dst_in: hls.StreamIn(hls.i32),
                        n_edges: hls.Const(), n_nodes: hls.Const(),
                        feats: hls.Const(),
                        agg_out: hls.StreamOut(hls.i32)):
    # DGN-style: edges alternate direction sign based on parity.
    acc = hls.array(hls.i32, GNN_NODES * GNN_FEATS)
    for e in range(n_edges):
        dst = dst_in.read()
        sign = 1 if e % 2 == 0 else 0 - 1
        base = dst * feats
        for f in range(feats):
            hls.pipeline(ii=2)
            acc[base + f] = acc[base + f] + sign * msg_in.read()
    for i in range(n_nodes * feats):
        hls.pipeline(ii=1)
        agg_out.write(acc[i])


@hls.kernel
def gnn_update_mlp(agg_in: hls.StreamIn(hls.i32),
                   weights: hls.BufferIn(hls.i32, GNN_FEATS * GNN_FEATS),
                   n_nodes: hls.Const(), feats: hls.Const(),
                   out: hls.BufferOut(hls.i32, GNN_NODES * GNN_FEATS),
                   checksum: hls.ScalarOut(hls.i64)):
    vec = hls.array(hls.i32, GNN_FEATS)
    total = hls.cast(hls.i64, 0)
    for node in range(n_nodes):
        for f in range(feats):
            hls.pipeline(ii=1)
            vec[f] = agg_in.read()
        for out_f in range(feats):
            hls.pipeline(ii=2)
            acc = 0
            for in_f in range(feats):
                hls.unroll()
                acc += vec[in_f] * weights[out_f * feats + in_f]
            value = max(acc >> 2, 0)  # ReLU with rescale
            out[node * feats + out_f] = value
            total += value
    checksum.set(total)


_GNN_AGGREGATORS = {
    "gin": gnn_agg_sum,
    "gcn": gnn_agg_mean,
    "gat": gnn_agg_attention,
    "pna": gnn_agg_max,
    "dgn": gnn_agg_directional,
}


def _build_flowgnn(variant: str) -> hls.Design:
    d = hls.Design(f"flowgnn_{variant}")
    edges = d.buffer("edges", hls.i32, 2 * GNN_EDGES, init=_gnn_graph())
    features = d.buffer("features", hls.i32, GNN_NODES * GNN_FEATS,
                        init=_gnn_features())
    weights = d.buffer("weights", hls.i32, GNN_FEATS * GNN_FEATS,
                       init=[((i * 7) % 11) - 3
                             for i in range(GNN_FEATS * GNN_FEATS)])
    out = d.buffer("out", hls.i32, GNN_NODES * GNN_FEATS)
    checksum = d.scalar("checksum", hls.i64)
    src = d.stream("src", hls.i32, depth=8)
    dst = d.stream("dst", hls.i32, depth=512)
    msg = d.stream("msg", hls.i32, depth=16)
    agg = d.stream("agg", hls.i32, depth=16)
    d.add(gnn_edge_loader, edges=edges, n_edges=GNN_EDGES, src_out=src,
          dst_out=dst)
    d.add(gnn_gather, features=features, src_in=src, n_edges=GNN_EDGES,
          feats=GNN_FEATS, msg_out=msg)
    d.add(_GNN_AGGREGATORS[variant], msg_in=msg, dst_in=dst,
          n_edges=GNN_EDGES, n_nodes=GNN_NODES, feats=GNN_FEATS,
          agg_out=agg)
    d.add(gnn_update_mlp, agg_in=agg, weights=weights, n_nodes=GNN_NODES,
          feats=GNN_FEATS, out=out, checksum=checksum)
    return d


for _variant in ("gin", "gcn", "gat", "pna", "dgn"):
    def _make_builder(v=_variant):
        def build() -> hls.Design:
            return _build_flowgnn(v)
        return build

    _register_a(f"flowgnn_{_variant}", _make_builder(),
                f"FlowGNN message-passing dataflow ({_variant.upper()})")


# --- 34. INR-Arch: deep gradient dataflow pipeline -----------------------------

INR_N = 768
INR_LAYERS = 8


@hls.kernel
def inr_source(data: hls.BufferIn(hls.i32, INR_N), n: hls.Const(),
               out: hls.StreamOut(hls.i32)):
    for i in range(n):
        hls.pipeline(ii=1)
        out.write(data[i])


@hls.kernel
def inr_layer_fwd(inp: hls.StreamIn(hls.i32), n: hls.Const(),
                  w: hls.Const(), b: hls.Const(),
                  out: hls.StreamOut(hls.i32),
                  tape: hls.StreamOut(hls.i32)):
    for i in range(n):
        hls.pipeline(ii=2)
        x = inp.read()
        y = (x * w + b) >> 3
        act = max(y, 0)
        out.write(act)
        tape.write(1 if y > 0 else 0)  # activation mask for backprop


@hls.kernel
def inr_turnaround(inp: hls.StreamIn(hls.i32), n: hls.Const(),
                   grad_out: hls.StreamOut(hls.i32),
                   loss_out: hls.ScalarOut(hls.i64)):
    total = hls.cast(hls.i64, 0)
    for i in range(n):
        hls.pipeline(ii=2)
        y = inp.read()
        total += y
        grad_out.write((y >> 4) + 1)  # dL/dy seed
    loss_out.set(total)


@hls.kernel
def inr_layer_bwd(grad_in: hls.StreamIn(hls.i32),
                  tape: hls.StreamIn(hls.i32), n: hls.Const(),
                  w: hls.Const(), grad_out: hls.StreamOut(hls.i32)):
    for i in range(n):
        hls.pipeline(ii=2)
        g = grad_in.read()
        mask = tape.read()
        grad_out.write((g * w * mask) >> 3)


@hls.kernel
def inr_grad_sink(grad_in: hls.StreamIn(hls.i32), n: hls.Const(),
                  grad_sum: hls.ScalarOut(hls.i64)):
    total = hls.cast(hls.i64, 0)
    for i in range(n):
        hls.pipeline(ii=1)
        total += grad_in.read()
    grad_sum.set(total)


def build_inr_arch(n: int = INR_N, layers: int = INR_LAYERS) -> hls.Design:
    d = hls.Design("inr_arch")
    data = d.buffer("data", hls.i32, INR_N,
                    init=[(i * 11) % 256 for i in range(INR_N)])
    loss = d.scalar("loss", hls.i64)
    grad_sum = d.scalar("grad_sum", hls.i64)

    fwd = [d.stream(f"fwd{k}", hls.i32, depth=8) for k in range(layers + 1)]
    # Activation tapes must buffer a whole pass (arbitrary-order gradient
    # computation needs them after the turnaround).
    tapes = [d.stream(f"tape{k}", hls.i32, depth=INR_N)
             for k in range(layers)]
    bwd = [d.stream(f"bwd{k}", hls.i32, depth=8) for k in range(layers + 1)]

    d.add(inr_source, data=data, n=n, out=fwd[0])
    for k in range(layers):
        d.add(inr_layer_fwd, instance_name=f"fwd_layer{k}", inp=fwd[k],
              n=n, w=3 + (k % 5), b=k + 1, out=fwd[k + 1], tape=tapes[k])
    d.add(inr_turnaround, inp=fwd[layers], n=n, grad_out=bwd[layers],
          loss_out=loss)
    for k in range(layers - 1, -1, -1):
        d.add(inr_layer_bwd, instance_name=f"bwd_layer{k}",
              grad_in=bwd[k + 1], tape=tapes[k], n=n, w=3 + (k % 5),
              grad_out=bwd[k])
    d.add(inr_grad_sink, grad_in=bwd[0], n=n, grad_sum=grad_sum)
    return d


_register_a("inr_arch", build_inr_arch,
            "INR-Arch style forward+backward gradient dataflow")


# --- 35. SkyNet: CNN backbone pipeline ----------------------------------------

IMG = 32          # input image is IMG x IMG
C1 = 4            # conv1 output channels
C2 = 8            # conv2 output channels
FC_OUT = 10


@hls.kernel
def sky_feeder(image: hls.BufferIn(hls.i32, IMG * IMG), n: hls.Const(),
               out: hls.StreamOut(hls.i32)):
    for i in range(n):
        hls.pipeline(ii=1)
        out.write(image[i])


@hls.kernel
def sky_conv1(inp: hls.StreamIn(hls.i32),
              weights: hls.BufferIn(hls.i32, C1 * 9),
              img: hls.Const(), channels: hls.Const(),
              out: hls.StreamOut(hls.i32)):
    frame = hls.array(hls.i32, IMG * IMG)
    for i in range(img * img):
        hls.pipeline(ii=1)
        frame[i] = inp.read()
    for ch in range(channels):
        for r in range(1, img - 1):
            for c in range(1, img - 1):
                hls.pipeline(ii=2)
                acc = 0
                for kr in range(3):
                    hls.unroll()
                    for kc in range(3):
                        hls.unroll()
                        acc += (frame[(r + kr - 1) * img + (c + kc - 1)]
                                * weights[ch * 9 + kr * 3 + kc])
                out.write(max(acc >> 4, 0))


@hls.kernel
def sky_pool(inp: hls.StreamIn(hls.i32), img: hls.Const(),
             channels: hls.Const(), out: hls.StreamOut(hls.i32)):
    # 2x2 max pool over the (img-2)x(img-2) valid convolution output,
    # streamed row by row per channel.
    side = img - 2
    rowbuf = hls.array(hls.i32, IMG)
    for ch in range(channels):
        for r in range(side):
            for c in range(side):
                hls.pipeline(ii=2)
                value = inp.read()
                if r % 2 == 0:
                    rowbuf[c] = value
                else:
                    if c % 2 == 1:
                        m1 = max(rowbuf[c - 1], rowbuf[c])
                        out.write(max(m1, value))


@hls.kernel
def sky_conv2(inp: hls.StreamIn(hls.i32),
              weights: hls.BufferIn(hls.i32, C2 * C1),
              side: hls.Const(), c_in: hls.Const(), c_out: hls.Const(),
              out: hls.StreamOut(hls.i32)):
    # 1x1 convolution mixing channels (SkyNet's pointwise stage).
    plane = hls.array(hls.i32, C1 * 15 * 15)
    area = side * side
    for i in range(c_in * area):
        hls.pipeline(ii=1)
        plane[i] = inp.read()
    for oc in range(c_out):
        for p in range(area):
            hls.pipeline(ii=2)
            acc = 0
            for ic in range(c_in):
                hls.unroll()
                acc += plane[ic * area + p] * weights[oc * c_in + ic]
            out.write(max(acc >> 4, 0))


@hls.kernel
def sky_fc(inp: hls.StreamIn(hls.i32),
           weights: hls.BufferIn(hls.i32, FC_OUT * C2),
           side: hls.Const(), c_in: hls.Const(), n_out: hls.Const(),
           scores: hls.BufferOut(hls.i32, FC_OUT),
           best: hls.ScalarOut(hls.i32)):
    # Global average pool per channel, then a tiny dense layer.
    pooled = hls.array(hls.i32, C2)
    area = side * side
    for ch in range(c_in):
        acc = 0
        for p in range(area):
            hls.pipeline(ii=1)
            acc += inp.read()
        pooled[ch] = acc // area
    best_score = 0 - (1 << 30)
    best_index = 0
    for o in range(n_out):
        hls.pipeline(ii=4)
        acc = 0
        for ch in range(c_in):
            hls.unroll()
            acc += pooled[ch] * weights[o * c_in + ch]
        scores[o] = acc
        if acc > best_score:
            best_score = acc
            best_index = o
    best.set(best_index)


def build_skynet() -> hls.Design:
    d = hls.Design("skynet")
    image = d.buffer("image", hls.i32, IMG * IMG,
                     init=[(r * 31 + c * 7) % 64
                           for r in range(IMG) for c in range(IMG)])
    w1 = d.buffer("w1", hls.i32, C1 * 9,
                  init=[((i * 3) % 7) - 3 for i in range(C1 * 9)])
    w2 = d.buffer("w2", hls.i32, C2 * C1,
                  init=[((i * 5) % 9) - 4 for i in range(C2 * C1)])
    w3 = d.buffer("w3", hls.i32, FC_OUT * C2,
                  init=[((i * 7) % 11) - 5 for i in range(FC_OUT * C2)])
    scores = d.buffer("scores", hls.i32, FC_OUT)
    best = d.scalar("best", hls.i32)

    s_img = d.stream("s_img", hls.i32, depth=8)
    s_conv1 = d.stream("s_conv1", hls.i32, depth=8)
    s_pool = d.stream("s_pool", hls.i32, depth=8)
    s_conv2 = d.stream("s_conv2", hls.i32, depth=8)

    d.add(sky_feeder, image=image, n=IMG * IMG, out=s_img)
    d.add(sky_conv1, inp=s_img, weights=w1, img=IMG, channels=C1,
          out=s_conv1)
    d.add(sky_pool, inp=s_conv1, img=IMG, channels=C1, out=s_pool)
    d.add(sky_conv2, inp=s_pool, weights=w2, side=15, c_in=C1, c_out=C2,
          out=s_conv2)
    d.add(sky_fc, inp=s_conv2, weights=w3, side=15, c_in=C2, n_out=FC_OUT,
          scores=scores, best=best)
    return d


_register_a("skynet", build_skynet,
            "SkyNet-style CNN backbone: conv / pool / pointwise / dense")
