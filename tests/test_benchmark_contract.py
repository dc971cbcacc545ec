"""What the benchmark under perfbench/ reads of qknap, checked in process.

perfbench generates its instances with qknap, serves each request
through ``qknap.cli.main``, checks every answer against qknap's oracle
and the stored seed-1 digests, and times the layers by wrapping their
public functions. These tests run those same paths on one instance per
workload, so a change to a record or function the benchmark reads
fails here rather than only in a benchmark run.
"""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qknap.cli  # a Tracer wraps the layers it finds loaded: these five
import qknap.dp
import qknap.generator
import qknap.greedy
import qknap.instance_io
import qknap.model
from qknap import GeneratorParams, generate_instance, parse_instance, serialize_instance

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's run, check and tracing modules, loaded by path under their own names."""
    modules = {}
    for name in ("run", "check", "tracing"):
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # check.py's dataclass looks its module up in sys.modules while it is built
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        modules[name] = module
    return modules["run"], modules["check"], modules["tracing"]


def test_every_workload_kind_answers_correctly_with_its_stored_digest(perfbench, tmp_path):
    run, check, tracing = perfbench
    for wl in run.WORKLOADS.values():
        seed = run.instance_seed(wl.name, run.DEFAULT_SEED, 0)
        it = run.write_instance(
            generate_instance(GeneratorParams(seed=seed, **wl.shape)), tmp_path / f"{wl.name}.qknap"
        )
        digests = run.stored_digests(wl, run.DEFAULT_SEED)[0]
        assert set(digests) == set(wl.mix), wl.name
        ref = check.make_reference(it.inst, wl.oracle, digests)
        for kind in wl.mix:
            _, code, stdout = tracing.call_main(run.request_argv(kind, it.path)[3:])
            assert code == 0, (wl.name, kind)
            assert check.check_answer(ref, kind, stdout) == [], (wl.name, kind)


def test_the_benchmark_generates_its_instances_through_instance_io(perfbench, tmp_path):
    # run.py imports the generator from qknap.instance_io, which forwards
    # exactly its four names to qknap.generator
    run, _, _ = perfbench
    for name in ("GeneratorParams", "SplitMix64", "generate_instance", "serialize_instance"):
        assert getattr(qknap.instance_io, name) is getattr(qknap.generator, name)
    with pytest.raises(AttributeError, match="module 'qknap.instance_io' has no attribute 'parse_int_'"):
        qknap.instance_io.parse_int_
    wl = run.WORKLOADS["batch"]
    made = run.make_instances(wl, run.DEFAULT_SEED, tmp_path)
    assert len(made) == wl.instances
    seed = run.instance_seed(wl.name, run.DEFAULT_SEED, 0)
    first = generate_instance(GeneratorParams(seed=seed, **wl.shape))
    assert made[0].inst == first
    assert made[0].path.read_text() == serialize_instance(first)
    cold = run.small_instance(tmp_path, "cold", n=4, k=3, weight_max=9, ratio=Fraction(1, 2))
    assert parse_instance(cold.path.read_text()) == cold.inst


def test_the_checker_self_test_accepts_only_the_clean_answer(perfbench):
    _, check, _ = perfbench
    assert check.self_test() == {
        "clean": False,
        "swapped_id": True,
        "wrong_weight": True,
        "dominated_label": True,
        "dropped_label": True,
    }


def test_the_traced_layers_give_every_per_layer_metric(perfbench, data_dir):
    run, _, tracing = perfbench
    tracer = tracing.Tracer()
    output_bytes = []
    for step, kind in enumerate(run.KINDS):
        tracer.request = step
        tracer.install()
        try:
            _, code, stdout = tracing.call_main(run.request_argv(kind, data_dir / "table1.qknap")[3:])
        finally:
            tracer.uninstall()
        assert code == 0, kind
        output_bytes.append(len(stdout.encode()))
    steps = len(run.KINDS)
    metrics = tracing.layer_metrics(tracer.spans, set(range(steps)), steps, output_bytes, (1.0, 1.0), [0.0])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(metrics) == [m["name"] for m in declared]
