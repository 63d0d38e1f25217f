"""Three-way differential: agreement on healthy engines, and each
divergence class (engine / retiming / batch / crash) detected."""

import dataclasses

import pytest

from repro.designs import dsl
from repro.fuzz import run_differential
from repro.fuzz import differential as diff_mod


def _drop_shape_spec(n=25):
    """The minimal injected-bug trigger: an nb_drop producer whose trip
    count exceeds its data buffer (modulo addressing -> a pipelined
    write with a long intra-iteration offset) feeding a blocking
    reader."""
    spec = dsl.generate("C", modules=3, seed=1, count=24)
    twin = dsl.parse_spec(dsl.spec_to_yaml(spec))
    twin.constants["n"] = n
    return twin


@pytest.mark.parametrize("family,modules", [
    ("A", 3), ("B", 4), ("C", 3), ("D", 12),
])
def test_healthy_engines_agree(family, modules):
    spec = dsl.generate(family, modules=modules, seed=0, count=12)
    report = run_differential(spec)
    assert report.divergence is None
    assert set(report.legs) >= {"omnisim[compiled]", "omnisim[interp]",
                                "cosim"}
    assert report.legs["omnisim[compiled]"][0] == "ok"
    assert report.configs_checked > 0


def test_injected_cosim_bug_is_an_engine_divergence(monkeypatch):
    monkeypatch.setenv("REPRO_INJECT_COSIM_FINALITY_BUG", "1")
    report = run_differential(_drop_shape_spec())
    assert report.divergence is not None
    assert report.divergence.kind == "engine"
    assert report.divergence.legs["cosim"] == ("deadlock",)
    assert report.divergence.legs["omnisim[compiled]"][0] == "ok"


def test_same_spec_is_clean_without_injection():
    report = run_differential(_drop_shape_spec())
    assert report.divergence is None


def test_engine_crash_is_reported_as_crash(monkeypatch):
    from repro.sim.registry import run_engine as real

    def selective(engine, compiled, **kw):
        if engine == "cosim":
            raise RuntimeError("engine fell over")
        return real(engine, compiled, **kw)

    monkeypatch.setattr(diff_mod, "run_engine", selective)
    spec = dsl.generate("A", modules=3, seed=0, count=8)
    report = run_differential(spec)
    assert report.divergence is not None
    assert report.divergence.kind == "crash"
    assert report.legs["cosim"][0] == "crash"


def test_retiming_oracle_disagreement_detected(monkeypatch):
    """The retiming oracle is a full OmniSim run at the probed depths
    (the only ``run_engine`` calls that pass ``depths=``): skew it and
    every accepted replay is a ``retiming`` divergence."""
    from repro.sim.registry import run_engine as real

    def skewed(engine, compiled, **kw):
        result = real(engine, compiled, **kw)
        if "depths" in kw:
            result.cycles += 1
        return result

    monkeypatch.setattr(diff_mod, "run_engine", skewed)
    spec = dsl.generate("A", modules=3, seed=0, count=8)
    report = run_differential(spec)
    assert report.divergence is not None
    assert report.divergence.kind == "retiming"
    assert set(report.divergence.legs) == {"retime[0].replay",
                                           "retime[0].full"}


def test_full_run_deadlock_under_accepted_replay_is_retiming(monkeypatch):
    from repro.errors import DeadlockError
    from repro.sim.registry import run_engine as real

    def deadlocking(engine, compiled, **kw):
        if "depths" in kw:
            raise DeadlockError(0, {"m": "full run hung"})
        return real(engine, compiled, **kw)

    monkeypatch.setattr(diff_mod, "run_engine", deadlocking)
    report = run_differential(dsl.generate("A", modules=3, seed=0, count=8))
    assert report.divergence is not None
    assert report.divergence.kind == "retiming"
    assert report.divergence.legs["retime[0].full"] == ("deadlock",)


def test_wrong_batch_row_detected(monkeypatch):
    from repro.trace.vectorized import resimulate_batch as real

    def corrupted(art, configs):
        rows = real(art, configs)
        for i, row in enumerate(rows):
            if row is not None:
                rows[i] = dataclasses.replace(row, cycles=row.cycles + 3)
                break
        return rows

    monkeypatch.setattr(diff_mod, "resimulate_batch", corrupted)
    spec = dsl.generate("A", modules=3, seed=0, count=8)
    report = run_differential(spec)
    if report.divergence is None:
        pytest.skip("vectorized kernel unavailable (no NumPy)")
    assert report.divergence.kind == "batch"


def test_divergence_report_is_json_safe():
    import json

    spec = _drop_shape_spec()
    report = run_differential(spec)
    assert report.divergence is None
    # legs tuples serialize once listified, the shape to_dict promises
    for leg in report.legs.values():
        json.dumps(list(leg))
