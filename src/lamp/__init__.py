"""Nonarithmetic vector-logic toolkit: interaction-quality metrics,
associative table search, and the LAMP grid simulator with its
assembler."""

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
    NotBinary,
    NotCompacted,
    ParseError,
    PcOutOfRange,
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
from .sim import (
    BinOp,
    Dir,
    Grid,
    Halt,
    IncRow,
    Instruction,
    Jump,
    JumpIfFlag,
    JumpIfNotFlag,
    JumpIfRowLt,
    LoadImm,
    Logic,
    Orf,
    Program,
    Recv,
    Reg,
    RunOutcome,
    RunResult,
    Send,
    Sequencer,
    SetRow,
    UnOp,
    builtin_query_program,
    neighbor,
    opposite,
)
from .asm import assemble, disassemble, load_program, program_from_bytes, program_to_bytes, save_program

__version__ = "0.1.0"
