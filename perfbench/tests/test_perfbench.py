"""Tests of the benchmark itself: inputs, verdict checks, tracing.

Run from the root of a tdlab checkout:

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import spans  # noqa: E402

ENV = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}


def all_inputs(seed):
    rng = random.Random(seed)
    leonard = gen.leonard_instance(rng, 3)
    return [
        leonard["text"],
        gen.shape_instance(rng, 2, (1, 1))["text"],
        gen.shape_instance(rng, 2, (1, 2), "iv")["text"],
        gen.shape_instance(rng, 3, (1, 1), "iii")["text"],
        gen.off_line_instance(rng, 3)["text"],
        gen.malformed_text(rng, leonard["text"]),
        gen.degenerate_text(rng, leonard),
        gen.oversized_text(rng),
    ]


def test_generator_is_deterministic_per_seed():
    assert all_inputs(5) == all_inputs(5)
    assert all_inputs(5) != all_inputs(6)


def test_generator_does_not_import_tdlab():
    code = "import sys, gen; assert not any(m.startswith('tdlab') for m in sys.modules)"
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True, env=ENV)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_leonard_phi_line_is_one_dimensional(d):
    from fractions import Fraction as F

    *_, kernel = gen.leonard_phi_line(d, F(2), F(3), F(5))
    assert len(kernel) == 1


def cli(*args):
    return subprocess.run([sys.executable, "-m", "tdlab.cli", *args], cwd=ROOT, env=ENV,
                          capture_output=True)


def test_valid_inputs_validate(tmp_path):
    from tdlab import forge, full_suite
    from tdlab.linalg import Matrix
    from tdlab.tdsystem import QRacahParams

    rng = random.Random(1)
    leonard = gen.leonard_instance(rng, 2)
    path = tmp_path / "leonard.json"
    path.write_text(leonard["text"])
    assert forge.format_instance(forge.ingest(path)) == leonard["text"]

    shape = gen.shape_instance(rng, 2, (1, 1))
    params = QRacahParams(shape["d"], shape["q"], shape["a"], shape["b"])
    system = forge.validate((Matrix(shape["A"]), Matrix(shape["Astar"])), params)
    assert forge.format_instance(system) == shape["text"]
    report = full_suite(system)
    assert report.all_passed and "lem.minpoly.MK1" in {e.check_id for e in report}


def test_invalid_inputs_are_rejected(tmp_path):
    from tdlab import forge
    from tdlab.linalg import Matrix
    from tdlab.tdsystem import QRacahParams

    rng = random.Random(2)
    for d, mult, axiom in ((2, (1, 2), "iv"), (3, (1, 1), "iii")):
        inst = gen.shape_instance(rng, d, mult, axiom)
        params = QRacahParams(inst["d"], inst["q"], inst["a"], inst["b"])
        with pytest.raises(ValueError):
            forge.validate((Matrix(inst["A"]), Matrix(inst["Astar"])), params)

    leonard = gen.leonard_instance(rng, 2)
    texts = [gen.off_line_instance(rng, 2)["text"], gen.oversized_text(rng)]
    texts += [gen.malformed_text(random.Random(k), leonard["text"]) for k in range(12)]
    texts += [gen.degenerate_text(random.Random(k), leonard) for k in range(8)]
    for k, text in enumerate(texts):
        path = tmp_path / f"bad{k}.json"
        path.write_text(text)
        proc = cli("verify", "--instance", str(path))
        assert (proc.returncode, proc.stdout) == (2, b""), text[:200]


def tdlab_attributes():
    """Every attribute of every loaded tdlab module and of the classes spans.py patches."""
    import tdlab.cli  # noqa: F401  (install() loads every layer module)

    mods = {n: m for n, m in sys.modules.items() if n == "tdlab" or n.startswith("tdlab.")}
    state = {(n, a): v for n, m in mods.items() for a, v in vars(m).items()}
    for cls in (sys.modules["tdlab.linalg"].Matrix, sys.modules["tdlab.report"].VerificationReport):
        state.update({(cls.__name__, a): v for a, v in vars(cls).items()})
    return state


def test_tracer_restores_every_attribute():
    snapshot = tdlab_attributes
    before = snapshot()
    tracer = spans.Tracer("k")
    tracer.install()
    assert snapshot() != before
    tracer.uninstall()
    assert snapshot() == before


def test_untraced_run_patches_nothing(tmp_path):
    """While an untraced op runs, every tdlab attribute is the original one."""
    import run
    from tdlab import forge

    before = tdlab_attributes()
    leonard = gen.leonard_instance(random.Random(4), 2)
    path = tmp_path / "leonard.json"
    path.write_text(leonard["text"])
    seen = []

    def op(traced):
        def export():
            seen.append(tdlab_attributes() == before)
            return forge.format_instance(forge.ingest(path))
        return r.call("k", export, traced)

    r = run.Run("library-suite", 1, 1, False, tmp_path)
    r.twice(op)
    assert seen == [True] and r.samples
    # The check can fail: a traced run's second pass runs with the spans installed.
    r = run.Run("library-suite", 1, 1, True, tmp_path)
    r.twice(op)
    assert seen == [True, True, False] and not r.failures
    assert tdlab_attributes() == before


def test_traced_cli_output_is_byte_identical(tmp_path):
    inst = gen.leonard_instance(random.Random(3), 2)
    path = tmp_path / "inst.json"
    path.write_text(inst["text"])
    gen_args = ["generate", "--d", "2", "--q", str(inst["q"]), "--a", str(inst["a"]),
                "--b", str(inst["b"]), "--phi=" + ",".join(str(x) for x in inst["phi"])]
    for args in (gen_args, ["verify", "--instance", str(path)],
                 ["decompose", "--instance", str(path)]):
        plain = cli(*args)
        traced = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(tmp_path / "spans.jsonl"), "k", *args],
            cwd=ROOT, env=ENV, capture_output=True)
        assert plain.returncode == 0 and plain.stdout
        assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    assert cli(*gen_args).stdout == inst["text"].encode()
    found, bits = spans.read_records(tmp_path / "spans.jsonl", "c")
    assert {s["name"] for s in found} >= {"cli.generate", "cli.verify", "cli.decompose"}
    assert bits > 0


def test_self_time_subtracts_children_and_primitives():
    recs = [
        {"id": "a", "parent": None, "name": "suite", "key": "k", "dur": 10.0,
         "counters": {"matmul_s": 1.0, "matmul_calls": 4}},
        {"id": "b", "parent": "a", "name": "psi.suite", "key": "k", "dur": 6.0,
         "counters": {"rref_s": 2.0, "matmul_calls": 3, "matmul_products": 8,
                      "matmul_zero_products": 6}},
    ]
    assert spans.self_times(recs) == {"a": 3.0, "b": 4.0}
    m = spans.layer_metrics(recs, 7, instances=2)
    assert m["suite.self_s"] == 1.5 and m["psi.suite.s"] == 2.0
    assert m["psi.suite.matmul_calls"] == 1.5 and m["linalg.matmul.calls"] == 3.5
    assert m["linalg.matmul.zero_share"] == 0.75 and m["linalg.max_entry_bits"] == 7


def test_clock_scales_each_segment_by_the_reference_speed(monkeypatch):
    import time

    import run

    monkeypatch.setattr(run, "reference_kernel", lambda: time.sleep(0.01))
    clock = run.Clock()
    clock.start()
    time.sleep(0.1)
    raw, scaled = clock.stop()
    assert len(clock.refs) == 2
    assert scaled == pytest.approx(raw * run.REFERENCE_NOMINAL_S / 0.01, rel=0.3)


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_run_emits_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = bench("library-suite", 1)
    assert result["correct"] and result["failed"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert result["metrics"]["psi.suite.matmul_calls"]["value"] > 0


def test_untraced_run_emits_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = bench("reject", 0)
    assert result["correct"] and result["attempted"] >= 25
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_tdlab_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "reject",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode != 0 and proc.stdout == ""
