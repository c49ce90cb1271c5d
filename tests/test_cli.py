import enum
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamp.assoc import diagnose, load_table, query, rank
from lamp.bitvec import BitVector
from lamp.cli import _indented, main
from lamp.quality import QualityIndex
from lamp.ternary import TernaryVector

WORKED_TABLE = "000011110101\n110011001100\n"
FAULT_DICT = "F1\t1100\nF2\t0011\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- metric -------------------------------------------------------------------


def test_metric_vector_table_ends_with_index(capsys):
    code, out, _ = run_cli(
        capsys, "metric", "--m", "110011001100", "--a", "000011110101",
        "--mode", "vector",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "Q = 6/12"
    assert any("111111000000" in l for l in lines)


def test_metric_arith_prints_exact_fraction(capsys):
    code, out, _ = run_cli(capsys, "metric", "--m", "x0", "--a", "xx",
                           "--mode", "arith")
    assert code == 0
    assert "Q = 5/6" in out


def test_metric_int_mode(capsys):
    code, out, _ = run_cli(
        capsys, "metric", "--m", "110011001100", "--a", "000011110101",
        "--mode", "int",
    )
    assert code == 0
    assert "Q = 12" in out


def test_metric_width_error_is_usage_failure(capsys):
    code, out, err = run_cli(capsys, "metric", "--m", "1", "--a", "10")
    assert code != 0
    assert "error" in err
    assert out == ""


def test_metric_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "metric", "--m", "110011001100", "--a", "000011110101",
        "--mode", "vector", "--format", "json",
    )
    doc = json.loads(out)
    assert (doc["k"], doc["n"]) == (6, 12)
    assert doc["q_compacted"] == "111111000000"


# --- query / diag ---------------------------------------------------------------


@pytest.fixture
def worked_table(tmp_path):
    path = tmp_path / "worked.tbl"
    path.write_text(WORKED_TABLE)
    return str(path)


@pytest.fixture
def fault_dict(tmp_path):
    path = tmp_path / "faults.tbl"
    path.write_text(FAULT_DICT)
    return str(path)


def test_query_self_match_wins(capsys, worked_table):
    code, out, _ = run_cli(capsys, "query", worked_table, "--m", "110011001100")
    assert code == 0
    assert "winner  row 2" in out
    assert "k=0/12" in out


def test_query_top_lists_sorted_rows(capsys, tmp_path):
    path = tmp_path / "t.tbl"
    path.write_text("0011\n0111\n1111\n")
    code, out, _ = run_cli(
        capsys, "query", str(path), "--m", "0011", "--top", "3",
        "--format", "tsv",
    )
    assert code == 0
    ranked = [l.split("\t") for l in out.splitlines() if l.startswith("rank")]
    assert [(r[1], r[3]) for r in ranked] == [("1", "0"), ("2", "1"), ("3", "2")]


PATTERNS = "# ternary patterns\nP1\t1x0x\nP2\t10xx\n0x01\nP4\t1x0x\nxxxx\n1110\n"


def _scores(row, label, q, d, mu_m_in_a, mu_a_in_m):
    return {"row": row, "label": label, "q": q, "d": d,
            "mu_m_in_a": mu_m_in_a, "mu_a_in_m": mu_a_in_m}


def test_ternary_query_json_is_unchanged(capsys, tmp_path, monkeypatch):
    # the document as the Fraction-per-row implementation printed it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.tbl").write_text(PATTERNS)
    per_row = [
        _scores(1, "P1", "5/6", "1", "1/2", "1"),
        _scores(2, "P2", "7/12", "1", "1/4", "1/2"),
        _scores(3, None, "1/4", "3/4", "0", "0"),
        _scores(4, "P4", "5/6", "1", "1/2", "1"),
        _scores(5, None, "17/24", "1", "1/8", "1"),
        _scores(6, None, "1/6", "1/2", "0", "0"),
    ]
    expect = {
        "command": "query",
        "inputs": {"table": "p.tbl", "vector": "1x01", "top": 3},
        "mode": "ternary",
        "best_rows": [{"row": 1, "label": "P1"}, {"row": 4, "label": "P4"}],
        "best": {"q": "5/6", "d": "1", "mu_m_in_a": "1/2", "mu_a_in_m": "1"},
        "per_row": per_row,
        "ranked": [per_row[0], per_row[3], per_row[4]],
    }
    code, out, _ = run_cli(capsys, "query", "p.tbl", "--m", "1x01", "--top", "3",
                           "--format", "json")
    assert code == 0
    assert out == json.dumps(expect, indent=2) + "\n"


@pytest.mark.parametrize(
    "command, fmt, table, probe, shown",
    [
        ("query", "text", PATTERNS, ["--m", "1x01"], "5/6"),
        ("query", "tsv", PATTERNS, ["--m", "1x01"], "5/6"),
        ("diag", "text", FAULT_DICT, ["--response", "1111"], "F2  k=2/4"),
        ("diag", "tsv", FAULT_DICT, ["--response", "1111"], "F2\t2\t4"),
    ],
    ids=["text", "tsv", "diag-text", "diag-tsv"],
)
def test_query_text_and_tsv_never_score_every_row(capsys, tmp_path, monkeypatch, command,
                                                  fmt, table, probe, shown):
    from lamp.assoc import QueryResult

    def forbidden(self):
        raise AssertionError("per_row read")

    def store(self, rows):  # query() still sets the field
        self.__dict__["_per_row"] = rows

    # the field descriptor hides per_row on the class, hence raising=False
    monkeypatch.setattr(QueryResult, "per_row", property(forbidden, store), raising=False)
    path = tmp_path / "p.tbl"
    path.write_text(table)
    code, out, err = run_cli(capsys, command, str(path), *probe, "--top", "3",
                             "--format", fmt)
    assert (code, err) == (0, "")
    assert shown in out


def test_one_shot_table_commands_build_no_planes(capsys, tmp_path, monkeypatch):
    import lamp.assoc

    real = lamp.assoc.AssocTable._set  # which a list of plane columns builds the planes

    def lanes_only(self, name, columns, *rest):
        assert not isinstance(columns, list), "planes built"
        real(self, name, columns, *rest)

    monkeypatch.setattr(lamp.assoc.AssocTable, "_set", lanes_only)
    faults, patterns = tmp_path / "faults.tbl", tmp_path / "patterns.tbl"
    faults.write_text("".join(f"F{i}\t{i:04b}\n" for i in range(16)))
    patterns.write_text("1x0x\n10xx\n0x01\n1x0x\n")
    for argv in (["diag", str(faults), "--response", "0110", "--top", "5", "--format", "json"],
                 ["query", str(patterns), "--m", "1x01", "--format", "tsv"]):
        assert run_cli(capsys, *argv)[0] == 0


def test_a_reader_that_has_gone_ends_the_command_quietly(tmp_path):
    path = tmp_path / "faults.tbl"
    path.write_text(FAULT_DICT)
    read, write = os.pipe()
    os.close(read)  # as `| head` does once it has its lines, here before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lamp", "diag", str(path), "--response", "1000",
             "--format", "json"],
            stdout=write, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_diag_top_searches_the_table_once(capsys, tmp_path, monkeypatch):
    import lamp.assoc

    made = []

    class Counted(lamp.assoc._Search):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(lamp.assoc, "_Search", Counted)
    path = tmp_path / "faults.tbl"
    path.write_text("".join(f"F{i}\t{i:04b}\n" for i in range(16)))
    code, out, err = run_cli(capsys, "diag", str(path), "--response", "0110", "--top", "5",
                             "--format", "json")
    assert (code, err) == (0, "")
    assert [r["row"] for r in json.loads(out)["ranked"]] == [7, 3, 5, 8, 15]
    assert len(made) == 1  # rank reuses the search of diagnose


# an oracle of the JSON report: one dict per row, printed by json.dumps


def _oracle_cells(score) -> dict:
    if isinstance(score, QualityIndex):
        return {"k": score.k, "n": score.n}
    return {"q": str(score.value), "d": str(score.d),
            "mu_m_in_a": str(score.mu_m_in_a), "mu_a_in_m": str(score.mu_a_in_m)}


def _oracle_report(command: str, path: str, text: str, vector: str, top) -> dict:
    table = load_table(text, name=os.path.basename(path))
    if command == "diag":
        probe = BitVector.parse(vector)
        result = diagnose(table, probe)
    else:
        probe = TernaryVector.parse(vector)
        result = query(table, probe)
    report = {
        "command": command,
        "inputs": {"table": path, "vector": vector, "top": top},
        "mode": result.mode.value,
        "best_rows": [{"row": idx, "label": label} for idx, label in result.best_rows],
        "best": _oracle_cells(result.best_index),
        "per_row": [{"row": i + 1, "label": table.labels[i], **_oracle_cells(s)}
                    for i, s in enumerate(result.per_row)],
    }
    if top:
        report["ranked"] = [{"row": idx, "label": table.labels[idx - 1], **_oracle_cells(s)}
                            for idx, s in rank(table, probe, top)]
    return report


_LABELS = [None, None, "%", "%s", "%d%%", '"', "\\", "a\\\"b", "é€", "ß", "F1", "{row}"]


@st.composite
def _labelled_tables(draw):
    """(text, probe, binary) of a table whose rows, drawn from a small
    pool, repeat and tie; a ternary pool holds rows whose p and q swap."""
    binary = draw(st.booleans())
    n = draw(st.integers(1, 6))
    symbols = "01" if binary else "01xx"
    vector = st.text(st.sampled_from(symbols), min_size=n, max_size=n)
    pool = draw(st.lists(vector, min_size=1, max_size=4))
    if not binary and n >= 4:
        # tied on the probe xx00..., with their p and q swapped
        pool += ["0xxx" + "0" * (n - 4), "00x0" + "0" * (n - 4)]
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    labels, seen = [], set()
    for label in draw(st.lists(st.sampled_from(_LABELS), min_size=len(rows),
                               max_size=len(rows))):
        labels.append(None if label in seen else label)
        seen.add(label)
    text = "# header\n" + "".join(row + "\n" if label is None else f"{label}\t{row}\n"
                                   for label, row in zip(labels, rows))
    swapped = not binary and n >= 4 and draw(st.booleans())
    probe = "xx00" + "0" * (n - 4) if swapped else draw(vector)
    if "x" not in "".join(rows):  # a binary table takes only binary probes
        probe = probe.replace("x", "0")
    return text, probe, binary


@settings(max_examples=150, deadline=None)
@given(case=_labelled_tables(), top=st.sampled_from([None, 1, 3, 20]))
@example(case=("# h\n%s\t0xxx\n\"\t00x0\n\\\t0xxx\n", "xx00", False), top=3)
@example(case=("é\t01\n%\t10\n01\n", "01", True), top=None)
def test_per_row_json_is_what_json_dumps_prints_of_the_row_dicts(case, top):
    text, probe, binary = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.tbl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in ("query", "diag") if binary else ("query",):
            flag = "--response" if command == "diag" else "--m"
            argv = [command, path, flag, probe, "--format", "json"]
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(argv + (["--top", str(top)] if top else [])) == 0
            expect = _oracle_report(command, path, text, probe, top)
            assert out.getvalue() == json.dumps(expect, indent=2) + "\n"


def test_diag_exact_signature(capsys, fault_dict):
    code, out, _ = run_cli(capsys, "diag", fault_dict, "--response", "1100")
    assert code == 0
    assert "winner  row 1  F1  k=0/4" in out


def test_diag_tie_reports_both_faults(capsys, fault_dict):
    code, out, _ = run_cli(
        capsys, "diag", fault_dict, "--response", "1111", "--format", "json"
    )
    doc = json.loads(out)
    assert [r["label"] for r in doc["best_rows"]] == ["F1", "F2"]
    assert doc["best"]["k"] == 2


def test_missing_table_file_fails(capsys):
    code, _, err = run_cli(capsys, "query", "/no/such/file", "--m", "1")
    assert code == 1
    assert "error" in err


def test_parse_error_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.tbl"
    path.write_text("1010\n10z0\n")
    code, _, err = run_cli(capsys, "query", str(path), "--m", "1010")
    assert code == 1
    assert "line 2" in err


# --- asm + run -------------------------------------------------------------------


ASM_SRC = """.width 4
.cell 0,0
    LOADM MA, 0110
    LOGIC PASS MA, MA, SLC, MB
    HALT
"""


def test_asm_build_and_dump_round_trip(capsys, tmp_path):
    src = tmp_path / "prog.lasm"
    src.write_text(ASM_SRC)
    out_path = tmp_path / "prog.lprog"
    code, out, _ = run_cli(capsys, "asm", "build", str(src), "-o", str(out_path))
    assert code == 0
    assert out_path.exists()

    code, dump, _ = run_cli(capsys, "asm", "dump", str(out_path))
    assert code == 0
    assert "LOADM MA, 0110" in dump
    assert ".width 4" in dump


def test_asm_build_error_carries_line(capsys, tmp_path):
    src = tmp_path / "bad.lasm"
    src.write_text("HALT\nJF nowhere\n")
    code, _, err = run_cli(capsys, "asm", "build", str(src))
    assert code == 1
    assert "line 2" in err


def test_asm_build_width_past_16_bits_is_one_error_line(capsys, tmp_path):
    src = tmp_path / "wide.lasm"
    src.write_text(".width 70000\nHALT\n")
    code, out, err = run_cli(capsys, "asm", "build", str(src))
    assert code == 1
    assert (out, err) == ("", "error: line 1: col 1: width 70000 does not fit in 16 bits\n")
    assert not (tmp_path / "wide.lprog").exists()


@pytest.mark.parametrize(
    "source, argv, message",
    [
        (".width 99999999999999999999\nHALT\n", [],
         "line 1: col 1: width 99999999999999999999 does not fit in 16 bits"),
        (".width 70000\nHALT\n", [], "line 1: col 1: width 70000 does not fit in 16 bits"),
        ("HALT\n", ["--width", "99999999999999999999"],
         "machine width must be an int in 1..65535, got 99999999999999999999"),
        ("HALT\n", ["--width", "65536"], "machine width must be an int in 1..65535, got 65536"),
    ],
)
def test_run_of_a_width_past_16_bits_is_one_error_line(capsys, tmp_path, source, argv, message):
    src = tmp_path / "wide.lasm"
    src.write_text(source)
    code, out, err = run_cli(capsys, "run", str(src), *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_run_assembly_source_directly(capsys, tmp_path):
    src = tmp_path / "prog.lasm"
    src.write_text(ASM_SRC)
    code, out, _ = run_cli(capsys, "run", str(src), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "all-halted"
    assert doc["cycles"] == 3
    assert doc["cells"]["0,0"]["MB"] == "1100"


def test_run_binary_program(capsys, tmp_path):
    src = tmp_path / "prog.lasm"
    src.write_text(ASM_SRC)
    out_path = tmp_path / "prog.lprog"
    run_cli(capsys, "asm", "build", str(src), "-o", str(out_path))
    code, out, _ = run_cli(capsys, "run", str(out_path))
    assert code == 0
    assert "all-halted" in out


def test_run_builtin_query_on_worked_data(capsys, worked_table):
    code, out, _ = run_cli(
        capsys, "run", "--builtin-query", "--table", worked_table,
        "--load", "MA=110011001100", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "all-halted"
    # row 2 matches exactly, so the best compacted quality is all zeros
    assert doc["cells"]["0,0"]["MD"] == "000000000000"
    assert doc["cells"]["0,0"]["MC"] == "110011001100"


def test_parser_is_built_once_and_keeps_no_values(capsys, worked_table):
    from lamp.cli import build_parser

    parser = build_parser()
    assert build_parser() is parser
    for argv in (["--help"], ["query", "--help"], ["run", "--help"]):
        for p in (parser, build_parser.__wrapped__()):
            with pytest.raises(SystemExit):
                p.parse_args(argv)
        cached, fresh = capsys.readouterr().out.split("usage:")[1:]
        assert cached == fresh
    first = parser.parse_args(["run", "p", "--load", "MA=1", "--load", "MB=0"])
    second = parser.parse_args(["run", "p", "--load", "MC=1"])
    assert (first.load, second.load) == (["MA=1", "MB=0"], ["MC=1"])
    assert parser.parse_args(["run", "p"]).load is None
    # a run with --load leaves nothing behind for the next main() call
    plain = ["run", "--builtin-query", "--table", worked_table, "--format", "json"]
    alone = run_cli(capsys, *plain)
    loaded = run_cli(capsys, *plain, "--load", "MA=110011001100")
    assert loaded != alone
    assert run_cli(capsys, *plain) == alone


def test_run_builtin_query_near_miss(capsys, tmp_path):
    path = tmp_path / "t.tbl"
    path.write_text("000011110101\n")
    code, out, _ = run_cli(
        capsys, "run", "--builtin-query", "--table", str(path),
        "--load", "MA=110011001100", "--format", "json",
    )
    doc = json.loads(out)
    assert doc["cells"]["0,0"]["MD"] == "111111000000"


def test_run_halt_only_takes_one_cycle(capsys, tmp_path):
    src = tmp_path / "h.lasm"
    src.write_text("HALT\n")
    code, out, _ = run_cli(capsys, "run", str(src), "--format", "json")
    doc = json.loads(out)
    assert doc["cycles"] == 1
    assert doc["outcome"] == "all-halted"


def test_run_missing_table_gives_row_error(capsys, tmp_path):
    src = tmp_path / "rowuser.lasm"
    src.write_text(".cell 0,0\nLOGIC PASS ROW, ROW, NOPU, MA\nHALT\n")
    code, _, err = run_cli(capsys, "run", str(src), "--load", "MA=0000")
    assert code == 1
    assert "row" in err


def test_run_deadlock_reports_cells(capsys, tmp_path):
    src = tmp_path / "dead.lasm"
    src.write_text(".cell 0,0\nSEND E, MA\n.cell 0,1\nSEND W, MA\n")
    code, out, _ = run_cli(capsys, "run", str(src), "--load", "MA=1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "deadlock"
    assert doc["deadlocked"] == ["0,0", "0,1"]


def test_run_trace_output(capsys, tmp_path):
    src = tmp_path / "t.lasm"
    src.write_text(".cell 1,1\nORF MA\nHALT\n")
    code, out, _ = run_cli(capsys, "run", str(src), "--load", "MA=01",
                           "--trace")
    assert code == 0
    assert "1\t1,1\t0\tORF MA" in out


TRACE_SRC = ".cell 0,0\nSEND E, MA\nHALT\n.cell 0,1\nORF MA\nRECV W, MB\nHALT\n"


def test_run_trace_in_tsv_and_json_matches_text(capsys, tmp_path):
    src = tmp_path / "t.lasm"
    src.write_text(TRACE_SRC)
    argv = ["run", str(src), "--load", "MA=01", "--trace", "--format"]
    _, text, _ = run_cli(capsys, *argv, "text")
    lines = text.splitlines()
    trace = lines[lines.index("trace (cycle cell pc mnemonic)") + 1:]
    assert trace[0] == "1\t0,0\t0\tSEND E, MA\t(stall)"

    code, tsv, _ = run_cli(capsys, *argv, "tsv")
    assert code == 0
    assert [l for l in tsv.splitlines() if l.startswith("trace\t")] == [
        "trace\t" + line for line in trace
    ]

    code, out, _ = run_cli(capsys, *argv, "json")
    assert code == 0
    events = json.loads(out)["trace"]
    assert len(events) == len(trace) == 6
    assert events[0] == {"cycle": 1, "cell": "0,0", "pc": 0,
                         "instruction": "SEND E, MA", "stall": True}
    assert events[3] == {"cycle": 2, "cell": "0,1", "pc": 1,
                         "instruction": "RECV W, MB", "stall": False}


def test_run_without_program_or_builtin_fails(capsys):
    code, _, err = run_cli(capsys, "run")
    assert code == 1
    assert "builtin-query" in err


def test_run_undecodable_program_file_is_one_line_error(capsys, tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\xff\xfe\x00garbage")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "UTF-8" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "{path}", "--m", "1100"],
        ["diag", "{path}", "--response", "1100"],
        ["run", "--builtin-query", "--table", "{path}", "--load", "MA=1100"],
        ["asm", "build", "{path}"],
    ],
)
def test_non_utf8_file_is_one_line_error(capsys, tmp_path, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1100\n00\xff1\n")
    code, out, err = run_cli(capsys, *[a.format(path=path) for a in argv])
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: not UTF-8 text (byte 7)\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "{table}", "--m", "1100", "--top", "-1"],
        ["query", "{table}", "--m", "1100", "--top", "0"],
        ["diag", "{table}", "--response", "1100", "--top", "0"],
        ["run", "--builtin-query", "--table", "{table}", "--max-cycles", "0"],
        ["run", "{table}", "--width", "0"],
        ["bench", "--n", "0"],
        ["bench", "--rows", "0"],
        ["bench", "--iters", "0"],
        ["bench", "--baseline-rows", "0"],
        ["bench", "--rows", "many"],
    ],
)
def test_nonpositive_counts_are_usage_errors(capsys, fault_dict, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([a.format(table=fault_dict) for a in argv])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert "error:" in err
    assert "Traceback" not in err


# --- bench ------------------------------------------------------------------------


def test_bench_small_run_reports_both_throughputs(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--n", "64", "--rows", "1000", "--iters", "2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["vector_rows_per_s"] > 0
    assert doc["scalar_rows_per_s"] > 0
    assert doc["winners_stable"] is True
    assert doc["paths_agree"] is True


def test_bench_deterministic_winner_for_fixed_seed(capsys):
    docs = []
    for _ in range(2):
        _, out, _ = run_cli(
            capsys, "bench", "--n", "32", "--rows", "500", "--seed", "9",
            "--format", "json",
        )
        docs.append(json.loads(out))
    assert docs[0]["winner_rows"] == docs[1]["winner_rows"]
    assert docs[0]["best_k"] == docs[1]["best_k"]


def test_bench_no_baseline(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--n", "32", "--rows", "200", "--no-baseline",
        "--format", "json",
    )
    doc = json.loads(out)
    assert code == 0
    assert "scalar_rows_per_s" not in doc


# --- the JSON writer ----------------------------------------------------------


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 200


_CHARS = st.one_of(
    st.characters(),  # non-ASCII and control characters
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", " ", "\ud800", "\udfff"]),
)
_TEXTS = st.text(_CHARS, max_size=8)
_KEYS = st.one_of(_TEXTS, st.integers(), st.floats(), st.booleans(), st.none())
_SCALARS = st.one_of(
    _TEXTS,
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.booleans(),
    st.none(),
    st.floats(),  # nan and both infinities included
    st.fractions(),
    st.sampled_from(list(_Level)),  # an int subclass
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(value=_VALUES)
def test_json_writer_prints_what_indented_json_dumps_prints(value):
    assert "".join(_indented(value, [])) == json.dumps(value, indent=2, default=str)


@pytest.mark.parametrize("value", [{(1, 2): 0}, {"a": [{b"k": 0}]}])
def test_json_writer_rejects_the_keys_json_dumps_rejects(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2, default=str)
    with pytest.raises(TypeError) as got:
        _indented(value, [])
    assert str(got.value) == str(want.value)


def test_tied_ternary_winners_print_their_own_components(capsys, tmp_path):
    # rows 1 and 2 tie at Q = 7/12 with mu_m_in_a and mu_a_in_m swapped
    path = tmp_path / "t.tbl"
    path.write_text("0xxx\n00x0\n")
    code, out, err = run_cli(capsys, "query", str(path), "--m", "xx00", "--top", "2",
                             "--format", "tsv")
    assert (code, err) == (0, "")
    assert out == (
        "winner\t1\t\t7/12\t1\t1/4\t1/2\n"
        "winner\t2\t\t7/12\t1\t1/2\t1/4\n"
        "rank\t1\t\t7/12\t1\t1/4\t1/2\n"
        "rank\t2\t\t7/12\t1\t1/2\t1/4\n"
    )
    _, metric, _ = run_cli(capsys, "metric", "--mode", "arith", "--m", "xx00", "--a", "00x0",
                           "--format", "tsv")
    assert "mu_m_in_a\t1/2\nmu_a_in_m\t1/4\n" in metric
    # the JSON best is the first winner's score
    _, doc, _ = run_cli(capsys, "query", str(path), "--m", "xx00", "--format", "json")
    assert json.loads(doc)["best"] == {"q": "7/12", "d": "1", "mu_m_in_a": "1/4",
                                       "mu_a_in_m": "1/2"}
