"""End-to-end acceptance gate.

One test per criterion; each prints a PASS line when its assertions
hold, so ``pytest -s tests/test_acceptance.py`` reads as a checklist.
Criteria 5 and 8 share one 500-instance randomized sweep; criterion 9
is a wall-clock smoke test. Criterion 6's property suite takes longest.
"""

import random
import time

import pytest

import qknap.ckernel
import qknap.dp
from helpers import drop_wall_time, improve, random_valuation, random_vector, run_cli
from qknap import (
    GeneratorParams,
    SplitMix64,
    enumerate_frontier,
    evaluate,
    falsification_witness,
    generate_instance,
    label_bound,
    solve,
    weakly_dominates,
)


def _ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_greedy_r_golden(data_dir):
    start = time.perf_counter()
    proc = run_cli("greedy", data_dir / "table1.qknap", "r")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert proc.stdout == (data_dir / "table1_greedy_r.out").read_text()
    assert "items=[2,4]" in proc.stdout
    assert elapsed < 1.0, f"greedy-r took {elapsed:.2f}s"
    _ok(1, f"greedy-r picks {{2,4}}, byte-exact output, {elapsed:.2f}s")


def test_criterion_2_greedy_w_golden(data_dir):
    start = time.perf_counter()
    proc = run_cli("greedy", data_dir / "table1.qknap", "w")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert proc.stdout == (data_dir / "table1_greedy_w.out").read_text()
    assert "items=[1,2,3]" in proc.stdout
    assert "weight=6" in proc.stdout
    assert "guarantee=EfficientBecauseFull" in proc.stdout
    assert elapsed < 1.0, f"greedy-w took {elapsed:.2f}s"
    _ok(2, f"greedy-w fills to W with {{1,2,3}}, {elapsed:.2f}s")


def test_criterion_3_counterexample_instance(data_dir):
    greedy = run_cli("greedy", data_dir / "table2.qknap", "w")
    assert greedy.stdout == (data_dir / "table2_greedy_w.out").read_text()
    assert "items=[1]" in greedy.stdout
    assert "guarantee=NoGuarantee" in greedy.stdout
    check = run_cli("check", data_dir / "table2.qknap", "--a", "2", "--b", "1")
    assert check.stdout.splitlines()[0] == "verdict=dominates"
    _ok(3, "greedy-w returns {1} without guarantee and {2} dominates it")


def test_criterion_4_dp_table_golden(data_dir):
    start = time.perf_counter()
    proc = run_cli("solve", data_dir / "table1.qknap", "--matrix")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    got = [line for line in proc.stdout.splitlines() if not line.startswith("#")]
    want = (data_dir / "table1_matrix.out").read_text().splitlines()
    assert got == want
    cell_lines = [line for line in got if line.startswith("cell ")]
    assert len(cell_lines) == 35  # i in 0..4 by x in 0..6
    assert elapsed < 1.0, f"solve --matrix took {elapsed:.2f}s"
    _ok(4, f"all 35 DP cells match the reference table, {elapsed:.2f}s")


def _sweep_params(seed: int) -> GeneratorParams:
    rng = SplitMix64(seed)
    return GeneratorParams(
        n=rng.uniform(12),
        k=rng.uniform(4),
        weight_max=rng.uniform(8),
        seed=seed,
        capacity=rng.uniform(31) - 1,  # W in 0..30
    )


def _sweep_results():
    for seed in range(1, 501):
        inst = generate_instance(_sweep_params(seed))
        yield seed, inst, solve(inst, keep_matrix=True)


def test_criterion_5_and_8_oracle_equivalence_and_bound():
    start = time.perf_counter()
    checked = cells = 0
    for seed, inst, result in _sweep_results():
        want = enumerate_frontier(inst)
        assert [lab.vector for lab in result.labels] == [
            lab.vector for lab in want.labels
        ], f"seed {seed}"
        for i, row in enumerate(result.matrix):
            for cell in row:
                assert len(cell) <= label_bound(inst.k, i), f"seed {seed}, row {i}"
                cells += 1
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 500
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _ok(5, f"DP frontier equals oracle on {checked} instances in {elapsed:.1f}s")
    _ok(8, f"label bound holds on all {cells} cells")


def test_criterion_6_lemma_property_suite():
    rng = random.Random(20260810)
    held = failed = 0
    for trial in range(10_000):
        k = rng.randint(1, 5)
        g2 = random_vector(rng, k)
        g1 = improve(rng, g2) if trial % 2 else random_vector(rng, k)
        n = max(sum(g1), sum(g2), 1)
        if weakly_dominates(g1, g2):
            held += 1
            for _ in range(100):
                v = random_valuation(rng, k)
                assert evaluate(v, g1) >= evaluate(v, g2), (g1, g2, v)
        else:
            failed += 1
            w = falsification_witness(g1, g2, n)
            assert w is not None, (g1, g2)
            assert evaluate(w, g2) > evaluate(w, g1), (g1, g2, w)
    assert held + failed == 10_000 and held > 1000 and failed > 1000
    _ok(6, f"no reversal on {held} dominant pairs; witness refutes all {failed} others")


def test_criterion_7_preorder_axioms():
    rng = random.Random(1)
    for _ in range(1_000):
        g = random_vector(rng, rng.randint(1, 5))
        assert weakly_dominates(g, g)
    for _ in range(10_000):
        k = rng.randint(1, 5)
        c = random_vector(rng, k)
        b = improve(rng, c)
        a = improve(rng, b)
        assert weakly_dominates(a, b) and weakly_dominates(b, c)  # premises by construction
        assert weakly_dominates(a, c)
    _ok(7, "reflexivity on 1000 vectors, transitivity on 10000 triples")


@pytest.mark.parametrize("backend", ["c-kernel", "python"])
def test_criterion_9_scale_smoke(backend, monkeypatch):
    base = dict(n=200, k=3, weight_max=50, seed=1)
    if backend == "c-kernel":
        small = generate_instance(GeneratorParams(n=60, k=3, weight_max=20, seed=2, capacity=400))
        solve(small)  # build or load the C row kernel outside the timed region
        kernel, reason = qknap.ckernel._load_row_kernel()
        assert kernel is not None, reason
        repeats = 3
    else:  # the Python twin, which serves every solve where no C kernel can be had
        monkeypatch.setattr(qknap.dp, "_KERNEL_MIN_CELLS", 10**12)
        repeats = 1
    times = {}
    for cap in (2000, 4000):
        inst = generate_instance(GeneratorParams(**base, capacity=cap))
        runs = []
        for _ in range(repeats):
            start = time.perf_counter()
            result = solve(inst)
            runs.append(time.perf_counter() - start)
        assert result.labels
        assert result.stats.backend == backend
        times[cap] = sorted(runs)[repeats // 2]  # the median
        if cap == 2000:
            assert all(r < 30.0 for r in runs), f"W=2000 runs: {runs}"
    ratio = times[4000] / times[2000]
    assert ratio <= 3.0, f"doubling W scaled wall time by {ratio:.2f}"
    _ok(
        9,
        f"{backend}: W=2000 in {times[2000]:.2f}s; doubling W scales time by {ratio:.2f} (<= 3.0)",
    )


def test_criterion_10_determinism(tmp_path):
    gen_args = ("gen", "--n", 40, "--k", 3, "--capacity", 120, "--wmax", 9, "--seed", 5)
    g1, g2 = run_cli(*gen_args), run_cli(*gen_args)
    assert g1.stdout == g2.stdout and g1.stdout

    inst = tmp_path / "inst.qknap"
    inst.write_text(g1.stdout)
    s1 = run_cli("solve", inst, "--matrix")
    s2 = run_cli("solve", inst, "--matrix")
    assert drop_wall_time(s1.stdout) == drop_wall_time(s2.stdout)

    bench_args = (
        "bench", "--n", "10,20", "--k", "3", "--capacity", "25", "--wmax", "6", "--seeds", 2,
    )
    b1, b2 = run_cli(*bench_args), run_cli(*bench_args)
    rows = lambda text: [r.rsplit(",", 1)[0] for r in text.splitlines()]
    assert rows(b1.stdout) == rows(b2.stdout)
    assert len(b1.stdout.splitlines()) == 5
    _ok(10, "solve, gen, and bench are byte-stable modulo wall time")
