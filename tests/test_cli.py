import json
import re

import pytest

import qknap.dp
from helpers import drop_wall_time, run_cli
from qknap.cli import main


def test_solve_table1_text(data_dir):
    proc = run_cli("solve", data_dir / "table1.qknap")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "vector=(0,1,0,1) weight=6 items=[2,4]"
    assert lines[1] == "vector=(1,1,1,0) weight=6 items=[1,2,3]"
    assert proc.stderr == ""


def test_solve_json(data_dir):
    proc = run_cli("solve", data_dir / "table1.qknap", "--json")
    doc = json.loads(proc.stdout)
    assert doc["frontier"] == [
        {"vector": [0, 1, 0, 1], "weight": 6, "items": [2, 4]},
        {"vector": [1, 1, 1, 0], "weight": 6, "items": [1, 2, 3]},
    ]
    assert doc["stats"]["labels"] == 2


def test_solve_matrix_json(data_dir):
    proc = run_cli("solve", data_dir / "table1.qknap", "--matrix", "--json")
    doc = json.loads(proc.stdout)
    assert doc["matrix"][4][6] == [[0, 1, 0, 1], [1, 1, 1, 0]]
    assert doc["matrix"][0] == [[]] * 7


def test_stats_keys_and_their_order(data_dir):
    keys = ["labels", "cells", "max_cell", "comparisons", "wall_time", "backend"]
    for command in ("solve", "enumerate"):
        text = run_cli(command, data_dir / "table1.qknap").stdout
        stats = [line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# ")]
        assert [name for name, _ in stats] == keys, command
        assert re.fullmatch(r"\d+\.\d{6}", dict(stats)["wall_time"]), command
        doc = json.loads(run_cli(command, data_dir / "table1.qknap", "--json").stdout)
        assert list(doc["stats"]) == keys, command


def test_solve_missing_file():
    proc = run_cli("solve", "no-such-file.qknap")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cannot read 'no-such-file.qknap': ")


def test_solve_malformed_file(tmp_path):
    bad = tmp_path / "bad.qknap"
    bad.write_text("qknap 1\nlevels 2\ncapacity 3\nitems 2\n1 1 1\n")
    proc = run_cli("solve", bad)
    assert proc.returncode == 2
    assert "line 5" in proc.stderr and "item count mismatch" in proc.stderr


def test_solve_refuses_a_negative_item_count(tmp_path):
    bad = tmp_path / "bad.qknap"
    bad.write_text("qknap 1\nlevels 1\ncapacity 3\nitems -1\n")
    proc = run_cli("solve", bad)
    assert proc.returncode == 2
    assert "line 4" in proc.stderr and "item count must be >= 0" in proc.stderr


def test_solve_refuses_a_weight_beyond_int64(data_dir):
    # item 1 weighs 2**64 + 1; summed in int64 it would pass for weight 1
    for command in ("solve", "enumerate"):
        proc = run_cli(command, data_dir / "weight_wrap.qknap")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "item 1: weight must be < 2**63" in proc.stderr


@pytest.mark.parametrize(
    "data, line, byte",
    [
        (b"qknap 1\n\xff\n", 2, "0xff"),
        # a Latin-1 e-acute in a comment
        (b"qknap 1\nlevels 1\ncapacity 3\nitems 1\n1 1 1 # caf\xe9\n", 5, "0xe9"),
    ],
)
def test_solve_refuses_non_utf8_text_with_its_line(tmp_path, data, line, byte):
    bad = tmp_path / "bad.qknap"
    bad.write_bytes(data)
    proc = run_cli("solve", bad)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: line {line}: not UTF-8 text: byte {byte}\n"


def test_solve_reads_crlf_lines(tmp_path, data_dir):
    text = (data_dir / "table1.qknap").read_bytes()
    crlf = tmp_path / "crlf.qknap"
    crlf.write_bytes(text.replace(b"\n", b"\r\n"))
    proc = run_cli("solve", crlf)
    assert proc.returncode == 0
    assert drop_wall_time(proc.stdout) == drop_wall_time(
        run_cli("solve", data_dir / "table1.qknap").stdout
    )


def test_a_cc_shlex_cannot_split_falls_back_to_the_python_kernel(tmp_path, monkeypatch):
    # 40 items and W=60 make 2,440 cells, enough for the C kernel; the compiler
    # command has an unbalanced quote
    gen = run_cli("gen", "--n", 40, "--k", 3, "--capacity", 60, "--wmax", 9, "--seed", 1)
    big = tmp_path / "big.qknap"
    big.write_text(gen.stdout)
    want = run_cli("solve", big).stdout
    monkeypatch.setenv("CC", 'gcc "')
    proc = run_cli("solve", big)
    assert proc.returncode == 0, proc.stderr
    assert "# backend=python" in proc.stdout.splitlines()
    frontier = lambda text: [line for line in text.splitlines() if not line.startswith("#")]
    assert frontier(proc.stdout) == frontier(want)


def test_greedy_modes(data_dir):
    r = run_cli("greedy", data_dir / "table1.qknap", "r")
    assert r.stdout == "items=[2,4] vector=(0,1,0,1) weight=6 guarantee=Efficient\n"
    w = run_cli("greedy", data_dir / "table1.qknap", "w")
    assert w.stdout == (
        "items=[1,2,3] vector=(1,1,1,0) weight=6 guarantee=EfficientBecauseFull\n"
    )
    w2 = run_cli("greedy", data_dir / "table2.qknap", "w")
    assert w2.stdout == "items=[1] vector=(1,0) weight=2 guarantee=NoGuarantee\n"


def test_enumerate_agrees_with_solve(data_dir):
    for name in ("table1.qknap", "table2.qknap"):
        solve_out = run_cli("solve", data_dir / name).stdout
        enum_out = run_cli("enumerate", data_dir / name).stdout
        frontier = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
        assert frontier(solve_out) == frontier(enum_out)


def test_enumerate_guard_exit_code(tmp_path):
    gen = run_cli("gen", "--n", 26, "--k", 2, "--capacity", 9, "--wmax", 4, "--seed", 1)
    big = tmp_path / "big.qknap"
    big.write_text(gen.stdout)
    proc = run_cli("enumerate", big)
    assert proc.returncode == 3
    assert "guard" in proc.stderr


def test_gen_deterministic():
    args = ("gen", "--n", 6, "--k", 3, "--capacity", 10, "--wmax", 5, "--seed", 7)
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.startswith("qknap 1\n")


def test_gen_golden_seed42(data_dir):
    proc = run_cli("gen", "--n", 4, "--k", 4, "--capacity", 6, "--wmax", 4, "--seed", 42)
    assert proc.stdout == (data_dir / "gen_seed42.qknap").read_text()


def test_gen_rejects_bad_params():
    proc = run_cli("gen", "--n", 4, "--k", 2, "--wmax", 4, "--seed", 1)
    assert proc.returncode == 2
    both = run_cli(
        "gen", "--n", 4, "--k", 2, "--capacity", 5, "--ratio", "1/2", "--wmax", 4, "--seed", 1
    )
    assert both.returncode == 2
    ratio = run_cli("gen", "--n", 4, "--k", 2, "--ratio", "3/2", "--wmax", 4, "--seed", 1)
    assert ratio.returncode == 2
    zero = run_cli("gen", "--n", 4, "--k", 2, "--ratio", "1/0", "--wmax", 4, "--seed", 1)
    assert zero.returncode == 2
    assert "Traceback" not in zero.stderr


def test_gen_ratio_mode():
    proc = run_cli("gen", "--n", 4, "--k", 2, "--ratio", "1/2", "--wmax", 4, "--seed", 3)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    weights = [int(l.split()[1]) for l in lines[4:]]
    assert lines[2] == f"capacity {-(-sum(weights) // 2)}"


def test_check_verdicts(data_dir):
    dom = run_cli("check", data_dir / "table2.qknap", "--a", "2", "--b", "1")
    assert dom.returncode == 0
    assert dom.stdout.splitlines() == [
        "verdict=dominates",
        "suffix_a=(1,1)",
        "suffix_b=(1,0)",
    ]
    rev = run_cli("check", data_dir / "table2.qknap", "--a", "1", "--b", "2")
    assert rev.stdout.splitlines()[0] == "verdict=dominated"
    same = run_cli("check", data_dir / "table1.qknap", "--a", "2,4", "--b", "2,4")
    assert same.stdout.splitlines()[0] == "verdict=equivalent"
    inc = run_cli("check", data_dir / "table1.qknap", "--a", "1,2,3", "--b", "2,4")
    assert inc.stdout.splitlines()[0] == "verdict=incomparable"


def test_check_witness(data_dir):
    proc = run_cli(
        "check", data_dir / "table1.qknap", "--a", "1,2,3", "--b", "2,4", "--witness"
    )
    lines = proc.stdout.splitlines()
    assert "witness=(1,2,3,68)" in lines
    assert "witness_value_a=6" in lines
    assert "witness_value_b=70" in lines


def test_check_unknown_id_exit_2(data_dir):
    proc = run_cli("check", data_dir / "table1.qknap", "--a", "9", "--b", "1")
    assert proc.returncode == 2
    assert "unknown id" in proc.stderr


def test_check_infeasible_exit_1(data_dir):
    proc = run_cli("check", data_dir / "table1.qknap", "--a", "3,4", "--b", "1")
    assert proc.returncode == 1
    assert "infeasible" in proc.stderr


def test_check_empty_subsets(data_dir):
    proc = run_cli("check", data_dir / "table1.qknap", "--a", "", "--b", "")
    assert proc.stdout.splitlines()[0] == "verdict=equivalent"


def test_bench_sweep_shape():
    proc = run_cli(
        "bench", "--n", "4,6", "--k", "3", "--capacity", "8", "--wmax", "4", "--seeds", 2
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,k,W,seed,frontier_size,max_cell,label_bound,comparisons,wall_time"
    assert len(lines) == 1 + 4  # two n values times two seeds
    for row in lines[1:]:
        cols = row.split(",")
        assert int(cols[5]) <= int(cols[6])  # max cell within the bound


def test_bench_empty_sweep():
    proc = run_cli(
        "bench", "--n", "4", "--k", "2", "--capacity", "5", "--wmax", "3", "--seeds", 0
    )
    assert proc.stdout.splitlines() == [
        "n,k,W,seed,frontier_size,max_cell,label_bound,comparisons,wall_time"
    ]


def test_bench_deterministic_except_wall_time():
    args = ("bench", "--n", "5", "--k", "2", "--capacity", "9", "--wmax", "4", "--seeds", 2)
    a, b = run_cli(*args), run_cli(*args)
    strip = lambda text: [r.rsplit(",", 1)[0] for r in text.splitlines()]
    assert strip(a.stdout) == strip(b.stdout)


def test_bench_requires_capacity_or_ratio():
    base = ("bench", "--n", "4,5", "--wmax", "3", "--seeds", 2)
    for bad in [
        ("--k", "2"),
        ("--k", "2", "--capacity", "5", "--ratio", "1/2"),
        ("--k", "2", "--ratio", "1/0"),
        ("--k", "2", "--ratio", "3/2"),
        ("--k", "2,0", "--capacity", "5"),  # the bad k comes last in the sweep
    ]:
        proc = run_cli(*base, *bad)
        assert proc.returncode == 2, bad
        assert "Traceback" not in proc.stderr
        assert proc.stdout == "", bad  # refused before the CSV header


def test_bench_ratio_mode():
    proc = run_cli(
        "bench", "--n", "4,8", "--k", "2", "--ratio", "1/2", "--wmax", "5", "--seeds", 1
    )
    assert proc.returncode == 0
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 2
    assert int(rows[0].split(",")[2]) < int(rows[1].split(",")[2])  # W scales with n


def test_enumerate_json(data_dir):
    proc = run_cli("enumerate", data_dir / "table2.qknap", "--json")
    doc = json.loads(proc.stdout)
    assert doc["frontier"] == [{"vector": [0, 1], "weight": 3, "items": [2]}]


def test_check_witness_on_dominated(data_dir):
    proc = run_cli("check", data_dir / "table2.qknap", "--a", "1", "--b", "2", "--witness")
    lines = proc.stdout.splitlines()
    assert lines[0] == "verdict=dominated"
    assert any(l.startswith("witness=") for l in lines)
    values = {l.split("=")[0]: l.split("=")[1] for l in lines if "value" in l}
    assert int(values["witness_value_b"]) > int(values["witness_value_a"])


def test_solve_matrix_text_golden(data_dir):
    proc = run_cli("solve", data_dir / "table1.qknap", "--matrix")
    got = [l for l in proc.stdout.splitlines() if not l.startswith("#")]
    want = (data_dir / "table1_matrix.out").read_text().splitlines()
    assert got == want


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError(), "out of memory"),
        (MemoryError("no room"), "out of memory: no room"),
    ],
)
def test_out_of_memory_exits_3(data_dir, monkeypatch, capsys, exc, message):
    # exit 1 would read as an infeasible subset
    def solve(inst, keep_matrix=False):
        raise exc

    monkeypatch.setattr(qknap.dp, "solve", solve)
    assert main(["solve", str(data_dir / "table1.qknap")]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
