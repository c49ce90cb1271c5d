"""The CLI error contract: any argv ends with status 0, 1 or 2, never a traceback.

argv is drawn from a small grammar over all six subcommands, with good
and bad files, vectors, counts and register loads mixed in. main() must
return 0 or 1 or let argparse exit with 2; any other exception escapes
and fails the test.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamp.asm import assemble, save_program
from lamp.cli import main

GOOD_ASM = ".width 4\n.cell 0,0\n    LOADM MA, 0110\n    LOGIC XOR MA, ROW, SLC, MC\n    HALT\n"


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    files = {
        "binary.tbl": "F1\t1100\nF2\t0011\n# comment\n0110\n",
        "ternary.tbl": "1x00\n0x11\nxxxx\n",
        "bad.tbl": "1100\n11z0\n",
        "good.lasm": GOOD_ASM,
        "bad.lasm": "HALT\nJF nowhere\n",
        "deadlock.lasm": ".cell 0,0\nSEND E, MA\n.cell 0,1\nSEND W, MA\n",
        "superscript.lasm": "SETROW \u00b2\n",
    }
    for name, text in files.items():
        (root / name).write_text(text)
    (root / "latin1.txt").write_bytes(b"1100\n00\xff1\n")
    save_program(str(root / "good.lprog"), assemble(GOOD_ASM))
    (root / "dir").mkdir()
    found = {name: str(root / name) for name in (*files, "latin1.txt", "good.lprog", "dir")}
    found["missing"] = str(root / "missing.tbl")
    found["out"] = str(root / "out.lprog")
    return found


vectors = st.sampled_from(["1100", "0011", "1x0x", "11", "", "1z00", "x", "11_00", "0110"])
counts = st.sampled_from(["1", "3", "0", "-2", "many"])
loads = st.sampled_from(["MA=1100", "MB=11", "MZ=1", "MA=", "=1100", "MA=1x", "mc=0110"])
formats = st.sampled_from([[], ["--format", "tsv"], ["--format", "json"], ["--format", "xml"]])


def optional(strategy):
    return st.one_of(st.just([]), strategy)


@st.composite
def argvs(draw, paths):
    path = st.sampled_from(sorted(v for k, v in paths.items() if k != "out"))
    tables = st.sampled_from([paths[k] for k in (
        "binary.tbl", "ternary.tbl", "bad.tbl", "latin1.txt", "dir", "missing")])
    top = optional(counts.map(lambda c: ["--top", c]))
    command = draw(st.sampled_from(["metric", "query", "diag", "asm", "run", "bench"]))
    if command == "metric":
        argv = ["metric", "--m", draw(vectors), "--a", draw(vectors)]
        argv += draw(optional(st.sampled_from(["arith", "int", "vector", "bits"]).map(
            lambda mode: ["--mode", mode])))
    elif command == "query":
        argv = ["query", draw(tables), "--m", draw(vectors), *draw(top)]
    elif command == "diag":
        argv = ["diag", draw(tables), "--response", draw(vectors), *draw(top)]
    elif command == "asm":
        if draw(st.booleans()):
            return ["asm", "build", draw(path), "-o", paths["out"]]
        return ["asm", "dump", draw(path)]
    elif command == "run":
        argv = ["run", *draw(optional(path.map(lambda p: [p])))]
        argv += draw(optional(st.just(["--builtin-query"])))
        argv += draw(optional(tables.map(lambda t: ["--table", t])))
        for item in draw(st.lists(loads, max_size=2)):
            argv += ["--load", item]
        argv += draw(optional(counts.map(lambda c: ["--width", c])))
        argv += draw(optional(counts.map(lambda c: ["--max-cycles", c])))
        argv += draw(optional(st.just(["--trace"])))
    else:
        argv = ["bench", "--n", draw(st.sampled_from(["1", "17", "64", "0"])),
                "--rows", draw(st.sampled_from(["1", "9", "50", "-1"])),
                "--iters", draw(st.sampled_from(["1", "2", "x"]))]
        argv += draw(optional(st.sampled_from([["--no-baseline"], ["--baseline-rows", "5"]])))
    return argv + draw(formats)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_argv_exits_0_1_or_2_without_traceback(paths, data):
    argv = data.draw(argvs(paths))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code:
        assert "error" in err.getvalue(), argv


@pytest.mark.parametrize("command", [["asm", "build", "{path}", "-o", "{out}"], ["run", "{path}"]])
def test_non_ascii_digit_in_assembly_is_one_error_line(paths, command):
    argv = [arg.format(path=paths["superscript.lasm"], out=paths["out"]) for arg in command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue() == "error: line 1: col 8: expected row index, got '\u00b2'\n"
