"""The package surface, and which modules each command loads.

``lamp`` loads its simulator and assembler names on first use; the
commands that never run the grid must not load them, and the names a
user imports must be the same as when every name was loaded eagerly.
"""

import json
import os
import subprocess
import sys

import pytest

import lamp

SRC = os.path.dirname(os.path.dirname(lamp.__file__))
GRID_MODULES = ("lamp.sim", "lamp.asm")

# what `from lamp import *` bound when the package imported every name eagerly
PUBLIC = {
    "AsmSyntaxError", "AssocTable", "BinOp", "BitVector", "CoordinateOutOfRange",
    "DeadlockDetected", "Dir", "DuplicateLabel", "EmptyIntersection", "EmptyTable",
    "Grid", "Halt", "IncRow", "Instruction", "InteractionClass", "IntersectionResult",
    "InvalidArgument", "InvalidRowIndex", "Jump", "JumpIfFlag", "JumpIfNotFlag",
    "JumpIfRowLt", "LampError", "LengthMismatch", "LoadImm", "Logic", "MalformedBinary",
    "Mode", "ModeMismatch", "NotAVector", "NotAnInstruction", "NotBinary",
    "NotCompacted", "Orf", "ParseError", "PcOutOfRange", "Program", "QualityIndex",
    "QualityScoreInt", "QualityScoreNorm", "QualityVector", "QueryResult", "Recv",
    "Reg", "RunOutcome", "RunResult", "Send", "Sequencer", "SequencerHalted", "SetRow",
    "TernaryVector", "UnOp", "UnknownMnemonic", "UnresolvedLabel", "WidthMismatch",
    "ZeroLength", "arith_keys", "asm", "assemble", "assoc", "bitvec",
    "builtin_query_program", "card_x", "choose_best", "classify_interaction",
    "criterion_arith", "criterion_vector", "diagnose", "disassemble",
    "empty_coord_count", "errors", "intersect", "load_program", "load_table",
    "neighbor", "opposite", "orf", "program_from_bytes", "program_to_bytes",
    "quality", "quality_arith", "quality_index", "query", "rank", "save_program",
    "sim", "sls", "ternary", "vand", "vnot", "vor", "vxor",
}
SUBMODULES = {"asm", "assoc", "bitvec", "errors", "quality", "sim", "ternary"}


def fresh(code: str, *argv: str, cwd=None):
    """Run ``code`` in a new interpreter; its last line of stdout, as JSON."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, cwd=cwd, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


RUN_MAIN = f"""
import contextlib, io, json, sys
import lamp.cli
with contextlib.redirect_stdout(io.StringIO()):
    status = lamp.cli.main(sys.argv[1:])
print(json.dumps([status, [m for m in {GRID_MODULES!r} if m in sys.modules]]))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["metric", "--m", "110011001100", "--a", "000011110101"], []),
        (["query", "patterns.tbl", "--m", "1x01", "--top", "2"], []),
        (["diag", "faults.tbl", "--response", "1000", "--top", "2"], []),
        (["bench", "--n", "16", "--rows", "50", "--iters", "1"], []),
        (["run", "--builtin-query", "--table", "faults.tbl", "--load", "MA=1000"],
         ["lamp.sim"]),
        (["asm", "build", "pair.lasm", "-o", "pair.lprog"], list(GRID_MODULES)),
    ],
    ids=["metric", "query", "diag", "bench", "run", "asm-build"],
)
def test_commands_load_only_what_they_run(tmp_path, argv, loaded):
    (tmp_path / "faults.tbl").write_text("F1\t1100\nF2\t0011\n")
    (tmp_path / "patterns.tbl").write_text("P1\t1x0x\nP2\t10xx\n0x01\n")
    (tmp_path / "pair.lasm").write_text(".width 4\n.cell 0,0\nLOADM MA, 1010\nHALT\n")
    assert fresh(RUN_MAIN, *argv, cwd=tmp_path) == [0, loaded]


def test_star_import_binds_the_public_names_to_their_objects():
    names = {}
    exec("from lamp import *", names)
    del names["__builtins__"]
    assert set(names) == PUBLIC
    for name, value in names.items():
        assert value is getattr(lamp, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"lamp.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name)
    assert lamp.Grid is lamp.sim.Grid
    assert lamp.assemble is lamp.asm.assemble


def test_dir_lists_the_public_names_before_they_load():
    code = f"""
import json, sys
import lamp
listed = sorted(name for name in dir(lamp) if not name.startswith("_"))
loaded = [m for m in {GRID_MODULES!r} if m in sys.modules]
import lamp.sim
print(json.dumps([listed, loaded, lamp.Grid is lamp.sim.Grid]))
"""
    listed, loaded, same_grid = fresh(code)
    assert set(listed) == PUBLIC
    assert loaded == []
    assert same_grid


def test_missing_attribute_is_the_standard_error():
    with pytest.raises(AttributeError) as info:
        lamp.nonexistent
    assert str(info.value) == "module 'lamp' has no attribute 'nonexistent'"
    assert not hasattr(lamp, "nonexistent")
