"""Declarative design DSL: parsing, validation, lowering, round trip.

Covers the ISSUE 3 acceptance properties:

* spec files lower to designs that simulate identically to their
  hand-written Python counterparts (the two checked-in examples);
* Python design -> exported spec -> parsed spec -> identical cycle
  counts and outputs on all engines (round trip);
* malformed specs fail with errors naming the spec and the stanza.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import compile_design, designs, hls
from repro.designs import dsl
from repro.errors import SpecError
from repro.sim import get_engine

from tests.conftest import fresh_interpreter

CoSimulator = get_engine("cosim").cls
OmniSimulator = get_engine("omnisim").cls

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")

MINIMAL = """
design: mini
constants: {n: 8}
fifos:
  - {name: f, type: i32, depth: 2}
buffers:
  - {name: data, type: i32, size: 8, init: [1, 2, 3, 4, 5, 6, 7, 8]}
scalars:
  - {name: total, type: i64}
modules:
  - {name: src, role: producer, data: data, out: f, count: n}
  - {name: snk, role: sink, in: f, count: n, total: total}
"""


def run_engines(compiled):
    """(cycles, scalars, buffers) per engine that covers this repro."""
    results = {}
    for name, sim in (("omnisim", OmniSimulator(compiled)),
                      ("interp", OmniSimulator(compiled, executor="interp")),
                      ("cosim", CoSimulator(compiled))):
        r = sim.run()
        results[name] = (r.cycles, dict(r.scalars), dict(r.buffers))
    return results


class TestParser:
    def test_minimal_spec_parses_and_runs(self):
        spec = dsl.parse_spec(MINIMAL)
        assert spec.name == "mini"
        assert spec.design_type == "A"
        compiled = compile_design(dsl.build_design(spec))
        result = OmniSimulator(compiled).run()
        assert result.scalars["total"] == 36

    def test_constant_override(self):
        spec = dsl.parse_spec(MINIMAL)
        compiled = compile_design(dsl.build_design(spec, n=4))
        assert OmniSimulator(compiled).run().scalars["total"] == 10

    def test_unknown_override_rejected(self):
        spec = dsl.parse_spec(MINIMAL)
        with pytest.raises(SpecError, match="override.*'m'"):
            dsl.build_design(spec, m=4)

    def test_json_is_valid_spec_input(self, tmp_path):
        doc = {
            "design": "j", "constants": {"n": 4},
            "fifos": [{"name": "f"}],
            "buffers": [{"name": "d", "size": 4, "init": [9, 9, 9, 9]}],
            "scalars": [{"name": "t", "type": "i32"}],
            "modules": [
                {"name": "p", "role": "producer", "data": "d",
                 "out": "f", "count": "n"},
                {"name": "s", "role": "sink", "in": "f", "count": "n",
                 "total": "t"},
            ],
        }
        path = tmp_path / "j.json"
        path.write_text(json.dumps(doc))
        entry = dsl.load_design_spec(str(path))
        r = OmniSimulator(compile_design(entry.make())).run()
        assert r.scalars["t"] == 36

    def test_yaml_is_imported_to_read_yaml(self, tmp_path):
        # generating, building and reading JSON specs never load
        # PyYAML; the first YAML text does.  (Flow-style YAML starts
        # like JSON and still parses.)
        doc = dsl.spec_to_dict(dsl.generate("A", modules=3, seed=0))
        (tmp_path / "g.json").write_text(json.dumps(doc))
        prog = f"""
import sys
from repro.designs import dsl
dsl.build_design(dsl.generate("C", modules=4, seed=1))
assert dsl.load_spec({str(tmp_path / "g.json")!r}).name == {doc["design"]!r}
dsl.parse_spec({json.dumps(doc)!r}, origin="<inline>")
assert "yaml" not in sys.modules, "a JSON spec imported yaml"
flow = dsl.parse_spec("{{design: x, fifos: [{{name: f}}], "
                      "buffers: [{{name: d, size: 4}}], modules: ["
                      "{{name: p, role: producer, data: d, out: f, count: 4}}, "
                      "{{name: s, role: sink, in: f, count: 4}}]}}")
assert flow.name == "x"
dsl.load_spec({os.path.join(EXAMPLES, "fig4_ex1.yaml")!r})
assert "yaml" in sys.modules
"""
        fresh_interpreter(prog)

    def test_one_spec_path_predicate(self):
        from repro.api import design_ref
        from repro.designs import registry

        assert dsl.looks_like_spec_path is registry.looks_like_spec_path
        assert dsl.SPEC_SUFFIXES is registry.SPEC_SUFFIXES
        assert registry.looks_like_spec_path("corpus/A.YAML")
        assert not registry.looks_like_spec_path("fig4_ex5")
        assert design_ref.resolve_design("fig4_ex5")[0][0] == "registry"

    def test_registry_resolve_accepts_spec_paths(self):
        entry = designs.resolve(os.path.join(EXAMPLES, "fig4_ex1.yaml"))
        assert entry.name == "fig4_ex1_dsl"
        assert entry.design_type == "A"

    def test_type_strings_round_trip(self):
        for text in ("i1", "u1", "i8", "u48", "i32", "f32", "f64",
                     "fixed(32,16)", "ufixed(16,8)"):
            ty = dsl.parse_type(text)
            assert dsl.parse_type(dsl.type_to_str(ty)) == ty

    def test_init_patterns(self):
        spec = dsl.parse_spec("""
design: pats
constants: {n: 4}
fifos: [{name: f}]
buffers:
  - {name: a, size: 4, init: 7}
  - {name: b, size: 4, init: {pattern: const, value: 3}}
  - {name: c, size: 4, init: [5, 6]}
modules:
  - {name: p, role: producer, data: a, out: f, count: n}
  - {name: s, role: sink, in: f, count: n}
""")
        design = dsl.build_design(spec)
        assert design.buffers["a"].init == [7, 7, 7, 7]
        assert design.buffers["b"].init == [3, 3, 3, 3]
        assert design.buffers["c"].init == [5, 6, 0, 0]  # zero padded


class TestMalformedSpecs:
    """Every error names the spec origin and the offending stanza."""

    def check(self, text, *needles):
        with pytest.raises(SpecError) as exc:
            dsl.parse_spec(text, origin="bad.yaml")
        message = str(exc.value)
        assert "bad.yaml" in message
        for needle in needles:
            assert needle in message, (needle, message)

    def test_unparseable_yaml(self):
        self.check("design: [unclosed", "invalid YAML")

    def test_top_level_not_mapping(self):
        self.check("- just\n- a list\n", "top level must be a mapping")

    def test_missing_design_name(self):
        self.check("modules: []\n", "missing required field(s) ['design']")

    def test_unknown_top_level_key(self):
        self.check("design: x\nmodules: []\nfifo: []\n",
                   "unknown field(s) ['fifo']")

    def test_bad_design_type(self):
        self.check("design: x\ntype: E\nmodules: []\n", "A/B/C/D", "'E'")

    def test_no_modules(self):
        self.check("design: x\nmodules: []\n", "at least one module")

    def test_unknown_element_type(self):
        self.check("""
design: x
fifos: [{name: f, type: q32}]
modules: [{name: m, role: sink, in: f, count: 1}]
""", "unknown element type 'q32'")

    def test_unknown_role(self):
        self.check("""
design: x
modules: [{name: m, role: transmogrifier}]
""", "unknown role 'transmogrifier'", "producer")

    def test_role_and_source_both(self):
        self.check("""
design: x
modules: [{name: m, role: sink, source: "def m(): pass"}]
""", "exactly one of 'role' or 'source'")

    def test_dangling_fifo_reference(self):
        self.check("""
design: x
fifos: [{name: f}]
modules:
  - {name: p, role: producer, out: f, count: 4}
  - {name: s, role: sink, in: nope, count: 4}
""", "modules[1] 's'", "unknown fifo 'nope'", "['f']")

    def test_double_producer(self):
        self.check("""
design: x
fifos: [{name: f}]
modules:
  - {name: p1, role: producer, out: f, count: 4}
  - {name: p2, role: producer, out: f, count: 4}
  - {name: s, role: sink, in: f, count: 4}
""", "already has a producer", "exactly one producer")

    def test_unconnected_fifo(self):
        self.check("""
design: x
fifos: [{name: f, depth: 2}, {name: ghost}]
modules:
  - {name: p, role: producer, out: f, count: 4}
  - {name: s, role: sink, in: f, count: 4}
""", "fifo 'ghost'", "no module")

    def test_unknown_constant_reference(self):
        self.check("""
design: x
constants: {n: 4}
fifos: [{name: f}]
modules:
  - {name: p, role: producer, out: f, count: m}
  - {name: s, role: sink, in: f, count: n}
""", "unknown constant 'm'", "['n']")

    def test_blocking_producer_rejects_done(self):
        # A done-driven producer free-runs on NB writes; silently
        # lowering `write: blocking` to the dropping template once lost
        # values without any error.
        self.check("""
design: x
fifos: [{name: f}, {name: done, type: u1}]
modules:
  - {name: p, role: producer, out: f, write: blocking, done: done}
  - {name: s, role: sink, in: f, count: 4, done: done}
""", "write: nb_retry or nb_drop")

    def test_nb_retry_requires_done(self):
        self.check("""
design: x
fifos: [{name: f}]
modules:
  - {name: p, role: producer, out: f, count: 4, write: nb_retry}
  - {name: s, role: sink, in: f, count: 4}
""", "nb_retry requires a 'done' fifo")

    def test_init_overflow(self):
        self.check("""
design: x
fifos: [{name: f}]
buffers: [{name: d, size: 2, init: [1, 2, 3]}]
modules:
  - {name: p, role: producer, data: d, out: f, count: 2}
  - {name: s, role: sink, in: f, count: 2}
""", "init has 3 elements, size is 2")

    def test_bad_depth(self):
        self.check("""
design: x
fifos: [{name: f, depth: 0}]
modules:
  - {name: p, role: producer, out: f, count: 4}
  - {name: s, role: sink, in: f, count: 4}
""", "depth", ">= 1")

    def test_source_module_missing_binds(self):
        self.check("""
design: x
modules:
  - name: m
    source: |
      def m(out: hls.StreamOut(hls.i32)):
          out.write(1)
""", "missing required field(s) ['binds']")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec"):
            dsl.load_spec(str(tmp_path / "missing.yaml"))

    def test_kernel_source_syntax_error(self):
        spec = dsl.parse_spec("""
design: x
fifos: [{name: f}]
scalars: [{name: t, type: i32}]
modules:
  - name: p
    source: "def p(out: hls.StreamOut(hls.i32)): out.write(("
    binds: {out: f}
  - {name: s, role: sink, in: f, count: 2, total: t}
""")
        with pytest.raises(SpecError, match="does not parse"):
            dsl.build_design(spec)


class TestExamples:
    """The checked-in specs mirror their Python originals exactly."""

    @pytest.mark.parametrize("spec_file,original,params", [
        ("fig4_ex1.yaml", "fig4_ex1", {"n": 200}),
        ("axis_pipeline.yaml", "axis_no_side_channel", {"n": 200}),
    ])
    def test_example_matches_python_original(self, spec_file, original,
                                             params):
        entry = designs.resolve(os.path.join(EXAMPLES, spec_file))
        mirrored = compile_design(entry.make(**params))
        reference = compile_design(designs.get(original).make(**params))
        a = OmniSimulator(mirrored).run()
        b = OmniSimulator(reference).run()
        assert a.cycles == b.cycles
        assert a.scalars == b.scalars
        assert a.buffers == b.buffers

    def test_all_example_specs_parse_and_simulate(self):
        for entry in sorted(os.listdir(EXAMPLES)):
            if not entry.endswith((".yaml", ".yml", ".json")):
                continue
            spec = dsl.load_spec(os.path.join(EXAMPLES, entry))
            compiled = compile_design(dsl.build_design(spec))
            result = OmniSimulator(compiled).run()
            assert result.cycles > 0, entry


class TestRoundTrip:
    """Python design -> exported spec -> parsed spec -> same results."""

    @pytest.mark.parametrize("name,params", [
        ("fig4_ex1", {"n": 150}),
        ("fig4_ex2", {"n": 100}),   # Type B: NB retry + done signal
        ("fig4_ex4b", {"n": 100}),  # Type C: counted drops
        ("accumulators_dataflow", {"n": 64}),
    ])
    def test_registry_design_round_trips(self, name, params):
        original = designs.get(name)
        doc = dsl.export_registry_design(original, **params)
        text = dsl.spec_to_yaml(doc)
        reparsed = dsl.parse_spec(text, origin=f"<export:{name}>")
        assert reparsed.design_type == original.design_type

        compiled_orig = compile_design(original.make(**params))
        compiled_rt = compile_design(dsl.build_design(reparsed))
        orig_results = run_engines(compiled_orig)
        rt_results = run_engines(compiled_rt)
        assert rt_results == orig_results

    def test_export_preserves_depth_overrides(self):
        design = designs.get("fig4_ex1").make(n=64, depth=7)
        doc = dsl.export_design(design)
        assert doc["fifos"][0]["depth"] == 7

    def test_export_refuses_sourceless_kernels(self):
        kernel = hls.kernel_from_source(
            "def k(out: hls.StreamOut(hls.i32), n: hls.Const()):\n"
            "    for i in range(n):\n"
            "        out.write(i)\n"
        )
        kernel.source = ""
        sink = hls.kernel_from_source(
            "def s(inp: hls.StreamIn(hls.i32), n: hls.Const(),\n"
            "      t: hls.ScalarOut(hls.i32)):\n"
            "    acc = 0\n"
            "    for i in range(n):\n"
            "        acc += inp.read()\n"
            "    t.set(acc)\n"
        )
        d = hls.Design("x")
        f = d.stream("f", hls.i32)
        t = d.scalar("t", hls.i32)
        d.add(kernel, out=f, n=4)
        d.add(sink, inp=f, n=4, t=t)
        with pytest.raises(SpecError, match="source unavailable"):
            dsl.export_design(d)
