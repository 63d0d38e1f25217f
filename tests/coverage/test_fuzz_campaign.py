"""Campaign end-to-end: clean engines fuzz clean, the injected cosim
finality bug is found / minimized / pinned within a small seeded
budget, pins replay deterministically, checkpoints resume."""

import json
import os

import pytest

from repro.designs import dsl
from repro.fuzz import (
    CampaignConfig,
    deterministic_mutants,
    run_campaign,
    run_differential,
    seed_corpus,
)
from tests.conftest import assert_cli_refuses

#: seeds + one deterministic stage reach the trigger well before this
_BUDGET = 40


@pytest.fixture()
def injected(monkeypatch):
    monkeypatch.setenv("REPRO_INJECT_COSIM_FINALITY_BUG", "1")


def test_seed_corpus_covers_taxonomy():
    corpus = seed_corpus()
    families = {label.split("-")[0] for label, _ in corpus}
    assert families == {"A", "B", "C", "D"}
    # NB-rich Type C leads the queue (deterministic stage order)
    assert corpus[0][0].startswith("C")


def test_deterministic_stage_is_stable():
    spec = dsl.generate("C", modules=3, seed=1, count=24)
    a = [(d, dsl.spec_to_yaml(m)) for d, m in deterministic_mutants(spec)]
    b = [(d, dsl.spec_to_yaml(m)) for d, m in deterministic_mutants(spec)]
    assert a == b
    assert any(d.startswith("det:n=") for d, _ in a)


def test_clean_campaign_finds_nothing(tmp_path):
    report = run_campaign(CampaignConfig(
        seed=0, budget=14, pin_dir=str(tmp_path / "pins")))
    assert report.evaluated == 14
    assert report.findings == []
    assert report.coverage_edges > 0
    assert report.corpus >= 11
    assert not os.path.exists(tmp_path / "pins")


def test_injected_campaign_finds_minimizes_pins(tmp_path, injected):
    pin_dir = tmp_path / "pins"
    report = run_campaign(CampaignConfig(
        seed=0, budget=_BUDGET, pin_dir=str(pin_dir)))
    assert report.findings, "campaign missed the injected bug"
    finding = report.findings[0]
    assert finding.kind == "engine"
    assert os.path.exists(finding.spec_path)
    assert os.path.exists(finding.sidecar_path)

    sidecar = json.loads(open(finding.sidecar_path).read())
    assert sidecar["campaign_seed"] == 0
    assert sidecar["kind"] == "engine"
    assert "--replay" in sidecar["command"]
    assert sidecar["minimize_steps"] == finding.minimize_steps
    assert sidecar["legs"]["cosim"] == ["deadlock"]

    # the pin is minimized: the trigger needs only producer + sink
    pinned = dsl.load_spec(finding.spec_path)
    assert len(pinned.modules) == 2
    assert pinned.constants["n"] <= 4

    # replays: diverges under injection ...
    assert run_differential(pinned).divergence is not None


def test_pin_replays_clean_without_injection(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_INJECT_COSIM_FINALITY_BUG", "1")
    report = run_campaign(CampaignConfig(
        seed=0, budget=_BUDGET, pin_dir=str(tmp_path / "pins")))
    assert report.findings
    pinned = dsl.load_spec(report.findings[0].spec_path)
    monkeypatch.delenv("REPRO_INJECT_COSIM_FINALITY_BUG")
    assert run_differential(pinned).divergence is None


def test_campaign_is_deterministic(tmp_path, injected):
    def pins_of(run):
        return sorted(f.name for f in run.findings)

    a = run_campaign(CampaignConfig(seed=0, budget=_BUDGET,
                                    pin_dir=str(tmp_path / "a")))
    b = run_campaign(CampaignConfig(seed=0, budget=_BUDGET,
                                    pin_dir=str(tmp_path / "b")))
    assert pins_of(a) == pins_of(b)
    assert a.evaluated == b.evaluated
    assert (open(a.findings[0].spec_path).read()
            == open(b.findings[0].spec_path).read())


def test_checkpoint_resume_continues_campaign(tmp_path, injected):
    checkpoint = str(tmp_path / "fuzz.ckpt")
    pin_dir = str(tmp_path / "pins")
    first = run_campaign(CampaignConfig(
        seed=0, budget=15, pin_dir=pin_dir, checkpoint=checkpoint))
    assert first.evaluated == 15

    resumed = run_campaign(CampaignConfig(
        seed=0, budget=_BUDGET, pin_dir=pin_dir,
        checkpoint=checkpoint, resume=True))
    assert resumed.resumed == 15
    assert resumed.evaluated == _BUDGET
    assert resumed.findings, "resume lost the finding"


def test_checkpoint_without_resume_flag_refuses(tmp_path, injected):
    from repro.errors import CheckpointError

    checkpoint = str(tmp_path / "fuzz.ckpt")
    run_campaign(CampaignConfig(seed=0, budget=5,
                                pin_dir=str(tmp_path / "p"),
                                checkpoint=checkpoint))
    with pytest.raises(CheckpointError):
        run_campaign(CampaignConfig(seed=0, budget=5,
                                    pin_dir=str(tmp_path / "p"),
                                    checkpoint=checkpoint))


@pytest.mark.parametrize("flags, names", [
    # a livelock guard of 0 fails the cosim leg by construction: this
    # one "found" an engine divergence, exited 5 and wrote a pin file
    (["--budget", "1", "--max-cycles", "0"], "max_cycles"),
    (["--budget", "-1"], "budget"),         # evaluated nothing, exit 0
    (["--minutes", "0"], "minutes"),
    (["--resume"], "checkpoint"),           # silently ignored
], ids=["max-cycles-0", "budget-negative", "minutes-0", "resume-alone"])
def test_cli_refuses_nonsense_and_pins_nothing(flags, names, tmp_path):
    pins = tmp_path / "pins"
    assert_cli_refuses(["fuzz", "--pin-dir", str(pins), *flags], names)
    assert not pins.exists()


def test_corpus_dir_specs_are_fuzzed(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    spec = dsl.generate("A", modules=3, seed=9, count=8)
    (corpus_dir / "extra.yaml").write_text(dsl.spec_to_yaml(spec))
    corpus = seed_corpus(str(corpus_dir))
    assert any(label == "corpus:extra.yaml" for label, _ in corpus)
