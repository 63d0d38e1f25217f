"""Integration tests for the Type A suite (paper Table 5).

Every design must produce identical cycle counts under OmniSim and
LightningSim (the paper reports identical accuracy for both), and the
functional outputs must match an independent Python model where one is
cheap to state.
"""

import math

import pytest

from repro import compile_design, designs
from repro.sim import get_engine

LightningSimulator = get_engine("lightningsim").cls
OmniSimulator = get_engine("omnisim").cls

ALL_TYPE_A = [s.name for s in designs.table5_specs()]


@pytest.fixture(scope="module")
def compiled_cache():
    return {}


def get_compiled(cache, name):
    if name not in cache:
        cache[name] = compile_design(designs.get(name).make())
    return cache[name]


@pytest.mark.parametrize("name", ALL_TYPE_A)
def test_omnisim_and_lightningsim_agree(compiled_cache, name):
    compiled = get_compiled(compiled_cache, name)
    omni = OmniSimulator(compiled).run()
    lightning = LightningSimulator(compiled).run()
    assert omni.cycles == lightning.cycles, name
    assert omni.scalars == lightning.scalars, name
    assert omni.buffers == lightning.buffers, name


def test_table5_has_35_designs():
    assert len(ALL_TYPE_A) == 35


class TestFunctionalCorrectness:
    """Spot checks against straightforward Python models."""

    def test_fir_filter(self, compiled_cache):
        result = OmniSimulator(
            get_compiled(compiled_cache, "fir_filter")
        ).run()
        samples = [(i * 7) % 100 - 50 for i in range(512)]
        coeffs = [1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1]
        expected = []
        history = [0] * 16
        for s in samples:
            history = [s] + history[:-1]
            expected.append(sum(h * c for h, c in zip(history, coeffs)))
        assert result.buffers["output"] == expected

    def test_matmul(self, compiled_cache):
        result = OmniSimulator(get_compiled(compiled_cache, "matmul")).run()
        m = 16
        a = [(i % 7) + 1 for i in range(m * m)]
        b = [(i % 5) + 1 for i in range(m * m)]
        expected = [
            sum(a[i * m + k] * b[k * m + j] for k in range(m))
            for i in range(m) for j in range(m)
        ]
        assert result.buffers["c_out"] == expected

    def test_merge_sort(self, compiled_cache):
        result = OmniSimulator(
            get_compiled(compiled_cache, "merge_sort_parallel")
        ).run()
        data = [(i * 193 + 71) % 1000 for i in range(256)]
        assert result.buffers["out"] == sorted(data)

    def test_vector_add(self, compiled_cache):
        result = OmniSimulator(
            get_compiled(compiled_cache, "vector_add_stream")
        ).run()
        expected = [i + 3 * i for i in range(1024)]
        assert result.axi_memories["mem_c"] == expected

    def test_fxp_sqrt(self, compiled_cache):
        result = OmniSimulator(
            get_compiled(compiled_cache, "fxp_sqrt")
        ).run()
        for i, measured in enumerate(result.buffers["results"]):
            expected = math.sqrt(float(i % 97 + 1))
            assert measured == pytest.approx(expected, abs=0.01), i

    def test_fft_variants_agree(self, compiled_cache):
        single = OmniSimulator(
            get_compiled(compiled_cache, "fft_unoptimized")
        ).run()
        staged = OmniSimulator(
            get_compiled(compiled_cache, "fft_multistage")
        ).run()
        for a, b in zip(single.buffers["real_out"],
                        staged.buffers["real_out"]):
            assert a == pytest.approx(b, abs=1e-3)

    def test_fft_finds_tone(self, compiled_cache):
        result = OmniSimulator(
            get_compiled(compiled_cache, "fft_unoptimized")
        ).run()
        mags = [
            math.hypot(r, i) for r, i in zip(result.buffers["real_out"],
                                             result.buffers["imag_out"])
        ]
        # Input is cos(2*pi*3*t/64): bins 3 and 61 dominate.
        top = sorted(range(64), key=lambda k: -mags[k])[:2]
        assert set(top) == {3, 61}

    def test_huffman_code_lengths(self, compiled_cache):
        result = OmniSimulator(
            get_compiled(compiled_cache, "huffman_encoding")
        ).run()
        lengths = result.buffers["lengths"]
        assert all(length > 0 for length in lengths)
        # Kraft inequality for a valid prefix code.
        assert sum(2.0 ** -length for length in lengths) <= 1.0 + 1e-9
        assert result.scalars["total_bits"] > 0

    def test_parallel_loops(self, compiled_cache):
        result = OmniSimulator(
            get_compiled(compiled_cache, "parallel_loops")
        ).run()
        total = sum(range(256))
        assert result.scalars["out_a"] == 2 * total
        assert result.scalars["out_b"] == 3 * total

    def test_resolved_access_faster_than_conflicted(self, compiled_cache):
        conflicted = OmniSimulator(
            get_compiled(compiled_cache, "multiple_array_access")
        ).run()
        resolved = OmniSimulator(
            get_compiled(compiled_cache, "resolved_array_access")
        ).run()
        # Bank splitting removes the port conflict: many fewer cycles.
        assert resolved.cycles < conflicted.cycles

    def test_axi4_master_writeback(self, compiled_cache):
        result = OmniSimulator(
            get_compiled(compiled_cache, "axi4_master")
        ).run()
        memory = result.axi_memories["mem"]
        assert memory[64:128] == [2 * i for i in range(64)]
        assert result.scalars["total"] == sum(2 * i for i in range(64))

    def test_flowgnn_variants_differ(self, compiled_cache):
        checksums = {}
        for variant in ("gin", "gcn", "gat", "pna", "dgn"):
            result = OmniSimulator(
                get_compiled(compiled_cache, f"flowgnn_{variant}")
            ).run()
            checksums[variant] = result.scalars["checksum"]
            assert result.scalars["checksum"] != 0, variant
        # Different aggregators must produce different embeddings.
        assert len(set(checksums.values())) == len(checksums)

    def test_inr_arch_gradients_flow(self, compiled_cache):
        result = OmniSimulator(
            get_compiled(compiled_cache, "inr_arch")
        ).run()
        assert result.scalars["loss"] > 0
        assert result.scalars["grad_sum"] >= 0

    def test_skynet_classifies(self, compiled_cache):
        result = OmniSimulator(get_compiled(compiled_cache, "skynet")).run()
        assert 0 <= result.scalars["best"] < 10
        assert any(result.buffers["scores"])

    def test_uram_rmw(self, compiled_cache):
        result = OmniSimulator(get_compiled(compiled_cache, "uram_ecc")).run()
        updates = [(i * 97) % 1000 for i in range(512)]
        expected = [0] * 4096
        for u in updates:
            expected[(u * 31) % 4096] += u
        assert result.buffers["table"] == expected

    def test_accumulators_asserts_pass(self, compiled_cache):
        result = OmniSimulator(
            get_compiled(compiled_cache, "accumulators_asserts")
        ).run()
        assert result.scalars["total"] == sum(range(512))
