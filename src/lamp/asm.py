"""Two-pass assembler, disassembler, and program binary codec.

Assembly grammar (mnemonics case-insensitive, labels case-sensitive,
";" starts a comment):

    program   := (directive | labeled_line | blank)*
    directive := ".width" INT | ".cell" INT "," INT
    labeled_line := [IDENT ":"] instr [";" comment]
    instr := "LOGIC" BINOP SRC "," SRC "," UNOP "," MREG
           | "ORF" SRC | "JMP" IDENT | "JF" IDENT | "JNF" IDENT
           | "SETROW" INT | "INCROW" | "JRLT" IDENT
           | "SEND" DIR "," MREG | "RECV" DIR "," MREG
           | "LOADM" MREG "," BITS | "HALT"
    BINOP := AND|OR|XOR|PASS    UNOP := NOT|SLC|NOPU
    MREG  := MA|MB|MC|MD        SRC  := MREG|ROW
    DIR   := N|NE|E|SE|S|SW|W|NW

A line ends at "\\n", "\\r\\n" or "\\r" only, as in a text-mode file (PEP
278), so a form feed or U+2028 is whitespace. ``.cell r,c`` routes the
following instructions to one grid cell; a source with no ``.cell`` at
all is broadcast to every cell. ``.width`` fixes the width of every
LOADM literal, before or after it, and is 1..65535 (``sim.MAX_WIDTH``,
what LAMP1 can state). A stray character is an error, and INT and every
name but a label are ASCII.

Equal lines share one parse: each distinct comment-stripped line is
tokenized once, and each distinct instruction text without a label
operand (labels before it aside) is parsed once, so all its lines hold
one frozen instruction. A jump is parsed on each of its lines, since its
label resolves in its own cell. The memos live for one ``assemble`` call.

Binary format (all integers big-endian): magic ``LAMP1``, u16 width
(0 = unspecified, so a set width must be 1..65535), sixteen u32
per-cell instruction counts in row-major order, then each cell's
instructions as 8-byte records ``kind f1 f2 f3 f4 f5 arg16``. ``kind`` is the instruction's position in
``sim.ISA``; its enum operands fill f1.. in field order, with each
member's position in its kind's members as its code, and a jump target
or row index fills arg16. A LOADM record is followed by its literal
packed MSB-first into ceil(width/8) bytes with zero padding. A field
the kind leaves unused (the f-bytes past its enum operands, and arg16
of a kind with no row index or jump target) is zero, and a LOGIC PASS
repeats its source in f3, so a program has one encoding: the decoder
refuses any other record with the field and the record's offset.
``program_to_bytes`` encodes each distinct instruction object once.

An instruction class in ``sim`` states its shape once, as OPERANDS
``(field name, kind)`` pairs, and ``sim.OPERAND_KINDS`` is the one table
of what each kind accepts. Both make the class's dataclass fields and
their checks there; here the parser, the disassembler and both
directions of the codec are one loop over the pairs, and read an enum
kind's members and the name its errors use from the same table.
"""

from __future__ import annotations

import io
import re

from .bitvec import BitVector
from .errors import (
    AsmSyntaxError,
    DuplicateLabel,
    MalformedBinary,
    UnknownMnemonic,
    UnresolvedLabel,
    WidthMismatch,
)
from .sim import GRID_SIZE, ISA, JUMPS, MAX_WIDTH, OPERAND_KINDS, LoadImm, Program

_TOKEN_RE = re.compile(r"\.?\w+|\S")
_IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")

MNEMONICS = {cls.MNEMONIC: cls for cls in ISA}

# enum operand kind -> {member name: member}
_NAMES = {kind: {m.name: m for m in members}
          for kind, (members, _, _) in OPERAND_KINDS.items() if isinstance(members, tuple)}


def _name(tok: str) -> str | None:
    """An ASCII token upper-cased, for matching names; None for any other."""
    return tok.upper() if tok.isascii() else None


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Split a comment-stripped line into (token, 1-based column) pairs."""
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


class _Cursor:
    """Token stream with position-carrying error helpers."""

    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self, what):
        if self.i >= len(self.tokens):
            col = self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 1
            raise AsmSyntaxError(f"expected {what}", self.lineno, col)
        tok, col = self.tokens[self.i]
        self.i += 1
        return tok, col

    def comma(self):
        tok, col = self.next("','")
        if tok != ",":
            raise AsmSyntaxError(f"expected ',' before {tok!r}", self.lineno, col)

    def end(self):
        if self.i < len(self.tokens):
            tok, col = self.tokens[self.i]
            raise AsmSyntaxError(f"unexpected {tok!r}", self.lineno, col)

    def member(self, kind):
        what = OPERAND_KINDS[kind][1]
        tok, col = self.next(what)
        member = _NAMES[kind].get(_name(tok))
        if member is None:
            raise AsmSyntaxError(f"expected {what}, got {tok!r}", self.lineno, col)
        return member

    def integer(self, what="integer"):
        tok, col = self.next(what)
        if not (tok.isascii() and tok.isdigit()):
            raise AsmSyntaxError(f"expected {what}, got {tok!r}", self.lineno, col)
        try:
            return int(tok)
        except ValueError:  # past the interpreter's limit on digits converted
            raise AsmSyntaxError(f"{what} has too many digits ({len(tok)})", self.lineno,
                                 col) from None

    def ident(self, what="label"):
        tok, col = self.next(what)
        if not _IDENT_RE.match(tok):
            raise AsmSyntaxError(f"expected {what}, got {tok!r}", self.lineno, col)
        return tok, col

    def bits(self):
        tok, col = self.next("bit literal")
        if not re.fullmatch(r"[01_]+", tok) or not tok.strip("_"):
            raise AsmSyntaxError(
                f"expected bit literal, got {tok!r}", self.lineno, col
            )
        return BitVector.parse(tok), col


def _parse_instr(cur: _Cursor, width, labels, stream):
    """Parse one instruction of ``stream``; ``labels`` maps each label to
    its (stream, address)."""
    tok, col = cur.next("mnemonic")
    cls = MNEMONICS.get(_name(tok))
    if cls is None:
        raise UnknownMnemonic(f"unknown mnemonic {tok!r}", cur.lineno, col)
    args = []
    for i, (_, kind) in enumerate(cls.OPERANDS):
        if i and cls.OPERANDS[i - 1][1] != "binop":
            cur.comma()
        if kind in _NAMES:
            args.append(cur.member(kind))
        elif kind == "index":
            args.append(cur.integer("row index"))
        else:  # a label or literal is checked once the whole line has parsed
            args.append(cur.ident() if kind == "target" else cur.bits())
    cur.end()
    for i, (_, kind) in enumerate(cls.OPERANDS):
        if kind == "target":
            label, col = args[i]
            if label not in labels or labels[label][0] != stream:
                raise UnresolvedLabel(
                    f"label {label!r} not defined in this cell", cur.lineno, col
                )
            args[i] = labels[label][1]
        elif kind == "literal":
            literal, col = args[i]
            if width is None:
                raise AsmSyntaxError(
                    "LOADM requires a .width directive", cur.lineno, col
                )
            if literal.n != width:
                raise WidthMismatch(
                    f"line {cur.lineno}: literal width {literal.n} != .width {width}"
                )
            args[i] = literal
    return cls(*args)


def assemble(source: str) -> Program:
    """Assemble source text into a program (two passes).

    Each distinct comment-stripped line is tokenized once, and each distinct
    instruction text with no label operand is parsed once, so equal lines
    share one instruction. A jump is parsed on its own line and resolved
    against its own cell's labels.
    """
    tokenized: dict = {}  # comment-stripped line -> its tokens
    lines = []  # (lineno, text, tokens) of each line that holds a token
    for lineno, raw in enumerate(io.StringIO(source, newline=None), start=1):
        text = raw.split(";", 1)[0]
        tokens = tokenized.get(text)
        if tokens is None:
            tokens = tokenized[text] = _tokenize(text)
        if tokens:
            lines.append((lineno, text, tokens))
    has_cell = any(_name(tokens[0][0]) == ".CELL" for _, _, tokens in lines)

    width = None
    stream = None if has_cell else "broadcast"
    streams: dict = {}  # stream key -> list of pending instructions
    labels: dict = {}  # label -> (stream key, address)
    pending = []  # (stream, address, cursor, text from the mnemonic on) in program order

    for lineno, text, tokens in lines:
        cur = _Cursor(tokens, lineno)
        first = cur.peek()
        if first.startswith("."):
            name, col = cur.next("directive")
            directive = _name(name)
            if directive == ".WIDTH":
                if width is not None:
                    raise AsmSyntaxError("duplicate .width", lineno, col)
                width = cur.integer("width")
                if width < 1:
                    raise AsmSyntaxError("width must be positive", lineno, col)
                if width > MAX_WIDTH:  # the text program_to_bytes would give
                    raise AsmSyntaxError(f"width {width} does not fit in 16 bits", lineno, col)
                cur.end()
            elif directive == ".CELL":
                r = cur.integer("cell row")
                cur.comma()
                c = cur.integer("cell column")
                cur.end()
                if not (0 <= r < GRID_SIZE and 0 <= c < GRID_SIZE):
                    raise AsmSyntaxError(
                        f"cell ({r},{c}) outside the {GRID_SIZE}x{GRID_SIZE} grid",
                        lineno, col,
                    )
                stream = (r, c)
                streams.setdefault(stream, [])
            else:
                raise AsmSyntaxError(f"unknown directive {name!r}", lineno, col)
            continue

        # optional label
        label = None
        if (
            len(tokens) >= 2
            and tokens[1][0] == ":"
            and _IDENT_RE.match(first)
            and _name(first) not in MNEMONICS
        ):
            label, label_col = cur.ident()
            cur.next("':'")
            if cur.peek() is None:
                raise AsmSyntaxError("expected instruction after label", lineno, label_col)

        if stream is None:
            raise AsmSyntaxError(
                "instruction before any .cell directive", lineno, tokens[0][1]
            )
        addr = len(streams.setdefault(stream, []))
        if label is not None:
            if label in labels:
                raise DuplicateLabel(f"duplicate label {label!r}", lineno, label_col)
            labels[label] = (stream, addr)
        streams[stream].append(None)  # reserve the address
        pending.append((stream, addr, cur, text[tokens[cur.i][1] - 1:]))

    # Equal texts hold equal tokens, and all but a jump parse the same on every
    # line; the first line of a text parses first, so its error is the first.
    parsed: dict = {}
    for stream, addr, cur, body in pending:
        inst = parsed.get(body)
        if inst is None:
            inst = _parse_instr(cur, width, labels, stream)
            if not isinstance(inst, JUMPS):
                parsed[body] = inst
        streams[stream][addr] = inst

    if "broadcast" in streams:  # then it is the only stream, and not empty
        return Program.broadcast(streams["broadcast"], width=width)
    program = Program(width=width)
    for (r, c), instrs in streams.items():
        program.cells[r][c] = instrs
    return program


def disassemble(program: Program) -> str:
    """Render a program as canonical source; reassembling it is identity."""
    out = []
    if program.width is not None:
        out.append(f".width {program.width}")
    for r in range(GRID_SIZE):
        for c in range(GRID_SIZE):
            code = program.cells[r][c]
            if not code:
                continue
            targets = set()
            for inst in code:
                if isinstance(inst, JUMPS):
                    if not 0 <= inst.target < len(code):
                        raise MalformedBinary(
                            f"cell ({r},{c}): jump target {inst.target} "
                            f"outside program of {len(code)}"
                        )
                    targets.add(inst.target)
                if isinstance(inst, LoadImm):
                    if program.width is None:
                        raise MalformedBinary("LOADM literal without a width")
                    if inst.literal.n != program.width:
                        raise MalformedBinary(
                            f"literal width {inst.literal.n} != width {program.width}"
                        )
            label = {t: f"L{r}{c}_{t}" for t in sorted(targets)}
            out.append(f".cell {r},{c}")
            for addr, inst in enumerate(code):
                head = f"{label[addr]}: " if addr in label else "    "
                out.append(head + inst.text(label.__getitem__))
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# Binary codec

MAGIC = b"LAMP1"
_LOADM = bytes([ISA.index(LoadImm)])  # the kind byte of a LOADM record


def _encode_instr(inst, width) -> bytes:
    fields, arg, tail = [ISA.index(type(inst))], 0, b""
    for name, kind in inst.OPERANDS:
        value = getattr(inst, name)
        if kind in _NAMES:
            fields.append(OPERAND_KINDS[kind][0].index(value))
        elif kind == "literal":
            if width is None:
                raise MalformedBinary("cannot encode LOADM without a width")
            if value.n != width:
                raise MalformedBinary(
                    f"literal width {value.n} != program width {width}"
                )
            nbytes = (width + 7) // 8
            tail = (value.value << (8 * nbytes - width)).to_bytes(nbytes, "big")
        else:
            arg = value
    if not 0 <= arg <= 0xFFFF:
        raise MalformedBinary(f"field {arg} does not fit in 16 bits")
    return bytes(fields).ljust(6, b"\0") + arg.to_bytes(2, "big") + tail


def program_to_bytes(program: Program) -> bytes:
    width = program.width
    if width is not None and width < 1:  # LAMP1 reads width 0 as unspecified
        raise MalformedBinary(f"width {width} is not positive")
    if (width or 0) > MAX_WIDTH:
        raise MalformedBinary(f"width {width} does not fit in 16 bits")
    chunks = [MAGIC, (width or 0).to_bytes(2, "big")]
    flat = [
        program.cells[r][c] for r in range(GRID_SIZE) for c in range(GRID_SIZE)
    ]
    for code in flat:
        chunks.append(len(code).to_bytes(4, "big"))
    records: dict = {}  # id of an instruction -> its record; the program keeps it alive
    for code in flat:
        for inst in code:
            record = records.get(id(inst))
            if record is None:
                record = records[id(inst)] = _encode_instr(inst, width)
            chunks.append(record)
    return b"".join(chunks)


def _take(data: bytes, pos: int, count: int) -> bytes:
    if pos + count > len(data):
        raise MalformedBinary(f"truncated: wanted {count} bytes at offset {pos}")
    return data[pos : pos + count]


def _field_of_byte(i: int) -> str:
    """The name of the field that holds byte ``i`` of a record."""
    return f"f{i}" if i < 6 else "arg16"


def _fields(cls) -> list[str]:
    """The field that holds each operand of ``cls``: enum operands fill f1..
    in field order, and a jump target or row index fills arg16."""
    enums = (f"f{i}" for i in range(1, 6))
    return [next(enums) if kind in _NAMES else "literal" if kind == "literal" else "arg16"
            for _, kind in cls.OPERANDS]


# per kind: the bits of a record, read as a big-endian int, in fields that the kind
# leaves unused and the encoder writes as zero
_UNUSED = [sum(0xFF << 8 * (7 - i) for i in range(1, 8)
               if _field_of_byte(i) not in _fields(cls)) for cls in ISA]


def _decode_record(data: bytes, pos: int, width):
    """The instruction of the record at ``pos``, which must be the record
    ``_encode_instr`` writes for it."""
    rec = _take(data, pos, 8)
    if rec[0] >= len(ISA):
        raise MalformedBinary(f"invalid instruction kind {rec[0]}")
    cls = ISA[rec[0]]
    args, fields = [], iter(rec[1:6])
    for _, kind in cls.OPERANDS:
        if kind in _NAMES:
            members, what, _ = OPERAND_KINDS[kind]
            value = next(fields)
            if value >= len(members):
                raise MalformedBinary(f"invalid {what} code {value}")
            args.append(members[value])
        elif kind == "literal":
            if width is None:
                raise MalformedBinary("LOADM literal without a width")
            nbytes = (width + 7) // 8
            raw = int.from_bytes(_take(data, pos + 8, nbytes), "big")
            pad = 8 * nbytes - width
            if raw & ((1 << pad) - 1):
                raise MalformedBinary("nonzero padding in LOADM literal")
            args.append(BitVector(width, raw >> pad))
        else:
            args.append(int.from_bytes(rec[6:8], "big"))
    unused = int.from_bytes(rec, "big") & _UNUSED[rec[0]]
    if unused:
        first = _field_of_byte(7 - (unused.bit_length() - 1) // 8)
        raise MalformedBinary(f"nonzero unused field {first} in the record at offset {pos}")
    inst = cls(*args)
    kept = [*vars(inst).values()]  # its fields, in field order
    if kept != args:  # the constructor normalized an operand, as LOGIC PASS does its src_b
        field = next(f for f, a, k in zip(_fields(cls), args, kept) if a is not k)
        raise MalformedBinary(f"non-canonical field {field} in the record at offset {pos}")
    return inst


def program_from_bytes(data: bytes) -> Program:
    """Equal records, a LOADM's with its literal, decode to one shared instruction;
    only records that decoded are remembered, so no fault goes unreported."""
    data = bytes(data)  # hashable slices for any bytes-like input
    if _take(data, 0, len(MAGIC)) != MAGIC:
        raise MalformedBinary("bad magic, not a LAMP1 program")
    width = int.from_bytes(_take(data, 5, 2), "big") or None
    counts = [int.from_bytes(_take(data, 7 + 4 * i, 4), "big") for i in range(GRID_SIZE**2)]
    literal = (width + 7) // 8 if width else 0
    program = Program(width=width)
    memo: dict = {}
    pos = 7 + 4 * GRID_SIZE**2
    for idx, count in enumerate(counts):
        code = []
        for _ in range(count):
            key = data[pos : pos + 8]
            inst = memo.get(key)
            if inst is None:
                if key[:1] == _LOADM:
                    key = data[pos : pos + 8 + literal]
                    inst = memo.get(key)
                if inst is None:  # a cut record matches no key remembered
                    inst = memo[key] = _decode_record(data, pos, width)
            code.append(inst)
            pos += len(key)
        program.cells[idx // GRID_SIZE][idx % GRID_SIZE] = code
    if pos != len(data):
        raise MalformedBinary(f"{len(data) - pos} trailing bytes")
    return program


def save_program(path, program: Program) -> None:
    data = program_to_bytes(program)  # a program that cannot be encoded leaves no file
    with open(path, "wb") as fh:
        fh.write(data)


def load_program(path) -> Program:
    with open(path, "rb") as fh:
        return program_from_bytes(fh.read())
