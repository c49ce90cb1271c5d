"""Nonarithmetic vector-logic toolkit: interaction-quality metrics,
associative table search, and the LAMP grid simulator with its
assembler."""

import importlib as _importlib

from .bitvec import BitVector, orf, sls, vand, vnot, vor, vxor
from .errors import (
    AsmSyntaxError,
    CoordinateOutOfRange,
    DeadlockDetected,
    DuplicateLabel,
    EmptyIntersection,
    EmptyTable,
    InvalidArgument,
    InvalidRowIndex,
    LampError,
    LengthMismatch,
    MalformedBinary,
    ModeMismatch,
    NotAVector,
    NotAnInstruction,
    NotBinary,
    NotCompacted,
    ParseError,
    PcOutOfRange,
    SequencerHalted,
    UnknownMnemonic,
    UnresolvedLabel,
    WidthMismatch,
    ZeroLength,
)
from .ternary import (
    InteractionClass,
    IntersectionResult,
    TernaryVector,
    card_x,
    classify_interaction,
    empty_coord_count,
    intersect,
)
from .quality import (
    QualityIndex,
    QualityScoreInt,
    QualityScoreNorm,
    QualityVector,
    arith_keys,
    choose_best,
    criterion_arith,
    criterion_vector,
    quality_arith,
    quality_index,
)
from .assoc import (
    AssocTable,
    Mode,
    QueryResult,
    diagnose,
    load_table,
    query,
    rank,
)

# The simulator and the assembler load on first use (PEP 562), so a
# command that only scores or queries never imports them.
_LAZY = dict.fromkeys(
    (
        "sim", "BinOp", "Dir", "Grid", "Halt", "IncRow", "Instruction", "Jump",
        "JumpIfFlag", "JumpIfNotFlag", "JumpIfRowLt", "LoadImm", "Logic", "Orf",
        "Program", "Recv", "Reg", "RunOutcome", "RunResult", "Send", "Sequencer",
        "SetRow", "UnOp", "builtin_query_program", "neighbor", "opposite",
    ),
    "sim",
) | dict.fromkeys(
    (
        "asm", "assemble", "disassemble", "load_program", "program_from_bytes",
        "program_to_bytes", "save_program",
    ),
    "asm",
)


def __getattr__(name):
    """Import a lazy name's submodule, and keep the name in this module."""
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = _importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


# the public names: every one bound above, then every lazy one
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)

__version__ = "0.1.0"
