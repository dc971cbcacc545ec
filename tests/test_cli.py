import gc
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qknap.ckernel
import qknap.dp
import qknap.generator
from helpers import drop_wall_time, needs_cc, run_cli
from qknap.cli import _served, main
from qknap.commands import _build_parser
from qknap.generator import GeneratorParams, generate_instance


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


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "cc, backend",
    [
        pytest.param(None, "c-kernel", marks=needs_cc, id="c-kernel"),
        pytest.param("/nonexistent/cc", "python", id="python"),
    ],
)
def test_a_solve_needs_no_memory_in_proportion_to_the_capacity(tmp_path, monkeypatch, cc, backend):
    # Three items of weight 10**9 fill W = 3 * 10**9. A row of one record per
    # budget would take tens of GB; a row of labels holds at most eight. The
    # child may map 1 GiB, the kernel's build in a fresh cache included.
    path = tmp_path / "huge.qknap"
    items = "".join(f"{i} 1000000000 1\n" for i in (1, 2, 3))
    path.write_text(f"qknap 1\nlevels 1\ncapacity 3000000000\nitems 3\n{items}")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    if cc is not None:
        monkeypatch.setenv("CC", cc)
    proc = subprocess.run(
        [sys.executable, "-m", "qknap", "solve", str(path)],
        capture_output=True,
        text=True,
        preexec_fn=_cap_address_space,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "vector=(3) weight=3000000000 items=[1,2,3]"
    assert f"# backend={backend}" in lines


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
    digit = run_cli("gen", "--n", "\u0663", "--k", 2, "--capacity", 5, "--wmax", 4, "--seed", 1)
    assert digit.returncode == 2  # int() reads an Arabic-Indic 3
    assert digit.stdout == ""
    assert "argument --n: invalid int value: '\u0663'" in digit.stderr
    # a ratio is two integers as parse_int reads them: no other digits, blanks or decimals
    for bad in ["\u0661/\u0662", " 1/2", "1/2 ", "0.5", "1/", "/2", "1/2/3"]:
        proc = run_cli("gen", "--n", 4, "--k", 2, "--ratio", bad, "--wmax", 4, "--seed", 1)
        assert proc.returncode == 2, bad
        assert proc.stdout == "", bad
        assert f"argument --ratio: invalid ratio '{bad}'" in proc.stderr


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


@pytest.mark.parametrize(
    "a, b, refused",
    [
        ("x", "1", "--a: invalid integer list 'x'"),
        ("1", "1,,2", "--b: invalid integer list '1,,2'"),
        ("\u0661", "", "--a: invalid integer list '\u0661'"),  # int() reads an Arabic-Indic 1
    ],
)
def test_check_refuses_a_malformed_id_list_as_a_usage_error(data_dir, a, b, refused):
    proc = run_cli("check", data_dir / "table1.qknap", "--a", a, "--b", b)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"qknap check: error: argument {refused}" in proc.stderr


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
        ("--k", "2", "--ratio", "1/2,\u0661/\u0662"),
        ("--k", "2", "--ratio", "1/2, 1/3"),
        ("--k", "2", "--ratio", "0.5"),
        ("--k", "2,0", "--capacity", "5"),  # the bad k comes last in the sweep
        ("--k", "2", "--capacity", "5", "--n", "4,"),  # an empty token
        ("--k", "2", "--capacity", "5", "--n", "4, 5"),  # int() reads " 5"
        ("--k", "2", "--capacity", "5", "--seeds", "+2"),
        ("--k", "2", "--capacity", "5", "--seeds", "-1"),
    ]:
        proc = run_cli(*base, *bad)
        assert proc.returncode == 2, bad
        assert "Traceback" not in proc.stderr
        assert proc.stdout == "", bad  # refused before the CSV header


def test_bench_refuses_a_capacity_out_of_range_before_its_header():
    # a fixed W is checked with the sweep's other parameters, as an instance checks it
    base = ("bench", "--n", "4", "--k", "2", "--wmax", "3", "--seeds", 1)
    for cap, error in [("-1", "capacity must be >= 0"), (str(2**63), "capacity must be < 2**63")]:
        proc = run_cli(*base, "--capacity", f"5,{cap}")  # the bad W comes last in the sweep
        assert (proc.returncode, proc.stdout) == (2, ""), cap
        assert proc.stderr.startswith(f"error: {error}"), proc.stderr


def test_bench_draws_each_instance_just_before_it_solves_it(monkeypatch, capsys):
    # one instance of the sweep is drawn, solved and printed at a time
    draws, seen = [], []
    draw, solve = qknap.generator.generate_instance, qknap.dp.solve

    def counted_draw(params):
        draws.append(params)
        return draw(params)

    def counted_solve(inst, *args, **kwargs):
        seen.append(len(draws))
        return solve(inst, *args, **kwargs)

    monkeypatch.setattr(qknap.generator, "generate_instance", counted_draw)
    monkeypatch.setattr(qknap.dp, "solve", counted_solve)
    argv = ["bench", "--n", "4,6", "--k", "3", "--capacity", "8", "--wmax", "4", "--seeds", "2"]
    assert main(argv) == 0
    assert seen == [1, 2, 3, 4]  # the k-th solve has seen exactly k draws
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4


def test_bench_ratio_mode():
    proc = run_cli(
        "bench", "--n", "4,8", "--k", "2", "--ratio", "1/2", "--wmax", "5", "--seeds", 1
    )
    assert proc.returncode == 0
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 2
    assert int(rows[0].split(",")[2]) < int(rows[1].split(",")[2])  # W scales with n


@pytest.mark.parametrize("n, loads", [("4,40", True), ("4,5", False)])
def test_wall_time_holds_no_kernel_load(monkeypatch, capsys, n, loads):
    # With W=60, 40 items make 2,440 cells, enough for the C kernel, and 5 make
    # 305. A kernel load that takes 0.5 s must show in no solve's wall_time.
    calls, load = [], qknap.ckernel._load_row_kernel

    def slow_load():
        calls.append("load")
        time.sleep(0.5)
        return load()

    monkeypatch.setattr(qknap.ckernel, "_load_row_kernel", slow_load)
    if loads:
        big = generate_instance(GeneratorParams(n=40, k=3, weight_max=9, seed=1, capacity=60))
        assert qknap.dp.solve(big).stats.wall_time < 0.1
    argv = ["bench", "--n", n, "--k", "3", "--capacity", "60", "--wmax", "9", "--seeds", "1"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2 and all(float(row.split(",")[-1]) < 0.1 for row in rows), rows
    assert calls == ["load"] * (2 if loads else 0)  # each 2,440-cell solve loads; 305 cells do not


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


_SUBCOMMANDS = ("solve", "greedy", "enumerate", "gen", "check", "bench")
_PATHS = ("table1.qknap", "", "-", "-table1.qknap")
_AFTER_PATH = ("r", "w", "x", "--", "-h", "--help", "--version", "--matrix", "--json", "--mat", "--matrix=1")
_ARGV_TOKEN = st.sampled_from(_SUBCOMMANDS + _PATHS + _AFTER_PATH)


@settings(max_examples=400)
@given(
    st.lists(_ARGV_TOKEN, max_size=5)
    # solve or greedy, then a path: the served shapes and their near misses come up often
    | st.tuples(
        st.sampled_from(("solve", "greedy")),
        st.sampled_from(_PATHS),
        st.lists(st.sampled_from(_AFTER_PATH), max_size=3),
    ).map(lambda t: [t[0], t[1], *t[2]])
)
@example(["solve", "table1.qknap"])
@example(["solve", "table1.qknap", "--json", "--matrix"])
@example(["greedy", "table1.qknap", "w"])
@example(["solve", "table1.qknap", "--mat"])  # an abbreviation only argparse takes
@example(["solve", "-table1.qknap"])
def test_served_requests_parse_as_the_argparse_grammar_does(argv):
    served = _served(argv)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            parsed = vars(_build_parser().parse_args(argv))
    except SystemExit:  # help, version and usage errors are argparse's alone
        assert served is None
    else:
        assert served is None or vars(served) == parsed


def test_main_in_process_never_freezes_the_heap(data_dir):
    # tests and tracers call main() many times in one process, which must
    # keep collecting its garbage
    frozen = gc.get_freeze_count()
    assert main(["solve", str(data_dir / "table1.qknap")]) == 0
    assert main(["solve", str(data_dir / "no-such-file.qknap")]) == 2
    assert gc.get_freeze_count() == frozen


def test_the_entry_freezes_the_heap_and_still_runs_atexit_handlers(data_dir):
    script = (
        "import atexit, gc, sys; print('before', gc.get_freeze_count()); "
        "atexit.register(lambda: print('at exit', gc.get_freeze_count() > 0)); "
        "from qknap.__main__ import run; run()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "solve", str(data_dir / "table1.qknap")],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "before 0"
    assert lines[1] == "vector=(0,1,0,1) weight=6 items=[2,4]"
    assert lines[-1] == "at exit True"


# What `python -m qknap` did before it had an entry of its own
_PLAIN_EXIT = "import sys; from qknap.cli import main; sys.exit(main())"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["solve", "table1.qknap"], 0),
        (["solve", "no-such-file.qknap"], 2),
        (["solv", "table1.qknap"], 2),  # a usage error, from argparse
        (["--version"], 0),
    ],
)
def test_the_entry_exits_as_main_does(data_dir, argv, code):
    # python -m qknap and python -m qknap.cli both exit through qknap.__main__.run
    argv = [str(data_dir / a) if a.endswith(".qknap") else a for a in argv]
    plain, *entries = (
        subprocess.run([sys.executable, *how, *argv], capture_output=True, text=True)
        for how in (["-c", _PLAIN_EXIT], ["-m", "qknap"], ["-m", "qknap.cli"])
    )
    assert plain.returncode == code
    for entry in entries:
        assert (entry.returncode, drop_wall_time(entry.stdout), entry.stderr) == (
            plain.returncode,
            drop_wall_time(plain.stdout),
            plain.stderr,
        )


def _drop_times(text: str) -> str:
    """The text without its wall times: `# wall_time=` lines and bench's last column."""
    return re.sub(r"\d+\.\d{6}$", "", text, flags=re.M)


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["--version"],
        ["gen", "--n", "6", "--k", "3", "--capacity", "10", "--wmax", "5", "--seed", "7"],
        ["check", "table1.qknap", "--a", "1,2,3", "--b", "2,4", "--witness"],
        ["bench", "--n", "4,40", "--k", "3", "--capacity", "60", "--wmax", "9", "--seeds", "1"],
        ["enumerate", "table1.qknap"],
        ["solve", "table1.qknap", "--mat"],  # an abbreviation only argparse takes
        ["greedy", "table1.qknap", "x"],  # a usage error
    ],
    ids=["help", "version", "gen", "check", "bench", "enumerate", "solve-mat", "usage-error"],
)
def test_an_unserved_command_runs_in_a_fresh_process_as_in_process(data_dir, monkeypatch, argv):
    # The grammar and these subcommands live in qknap.commands, which a fresh
    # `python -m qknap` imports only after cli has found the argv not served.
    argv = [str(data_dir / a) if a.endswith(".qknap") else a for a in argv]
    assert _served(argv) is None
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal
    fresh = subprocess.run([sys.executable, "-m", "qknap", *argv], capture_output=True, text=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # help, version and usage errors
            code = exc.code
    assert (fresh.returncode, _drop_times(fresh.stdout), fresh.stderr) == (
        code,
        _drop_times(out.getvalue()),
        err.getvalue(),
    )


def test_the_entry_reports_a_failed_flush_of_buffered_stdout(data_dir):
    # stdout is flushed at shutdown, after the freeze; a closed pipe still
    # gives the interpreter's exit 120 and its BrokenPipeError
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qknap", "solve", str(data_dir / "table1.qknap")],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write)
    assert proc.returncode == 120
    assert "BrokenPipeError" in proc.stderr


def test_a_profiler_still_reports_after_the_entry_exits(data_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "qknap", "solve", str(data_dir / "table1.qknap")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "vector=(0,1,0,1) weight=6 items=[2,4]" in proc.stdout
    assert "function calls" in proc.stdout
