"""Textual assembly frontend: function splitting, basic-block recovery,
control-flow edges, and semantic stripping for tokenization.

Input convention (line-oriented, Intel-flavored):
  - comments start at ';' and run to end of line
  - labels end with ':' and may share a line with an instruction
  - directives start with '.' and are ignored
  - a label that is never the target of a jump starts a new function when it
    appears at the top of the listing or right after a ret/jmp terminator;
    all other labels are local branch targets
  - a jump's operand may start with `short`, `near` or `near ptr` (as IDA and
    MASM write them); the label after it is the target

Blocks are maximal instruction runs ending at a control transfer or before a
labeled target. Unconditional jumps yield one edge, conditional jumps a
target edge plus fallthrough, returns none (exit), and calls terminate the
block with a fallthrough edge only (interprocedural edges are added later by
graph merging). Indirect jumps produce no edge; the block is flagged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .graphs import CfgGraph, make_graph
from .vocab import Vocab, encode_block

RET_MNEMONICS = {"ret", "retn", "retf", "iret", "iretd", "iretq"}
CALL_MNEMONICS = {"call", "callq", "lcall"}
JMP_MNEMONICS = {"jmp", "jmpq", "ljmp"}
_COND_JUMP_RE = re.compile(r"^j[a-z]{1,4}$")

REGISTERS = set(
    "rax rbx rcx rdx rsi rdi rbp rsp r8 r9 r10 r11 r12 r13 r14 r15 "
    "eax ebx ecx edx esi edi ebp esp r8d r9d r10d r11d r12d r13d r14d r15d "
    "ax bx cx dx si di bp sp r8w r9w r10w r11w r12w r13w r14w r15w "
    "al bl cl dl ah bh ch dh sil dil bpl spl r8b r9b r10b r11b r12b r13b r14b r15b "
    "rip eip ip cs ds es fs gs ss "
    "xmm0 xmm1 xmm2 xmm3 xmm4 xmm5 xmm6 xmm7 xmm8 xmm9 xmm10 xmm11 xmm12 xmm13 xmm14 xmm15 "
    "ymm0 ymm1 ymm2 ymm3 ymm4 ymm5 ymm6 ymm7 st0 st1 st2 st3 st4 st5 st6 st7".split()
)
OPERAND_KEYWORDS = {"byte", "word", "dword", "qword", "xmmword", "ymmword", "ptr",
                    "short", "near", "far", "offset"}
_TOKEN_RE = re.compile(r"[A-Za-z_.$@][\w.$@]*|0x[0-9A-Fa-f]+|\d+|\S")
_LABEL_RE = re.compile(r"^([A-Za-z_.$@][\w.$@]*):")

SYM_TOKEN = "<sym>"


class AsmParseError(ValueError):
    def __init__(self, code: str, message: str, line: int | None = None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"{code}: {message}{loc}")
        self.code = code
        self.line = line


@dataclass(frozen=True)
class Instruction:
    mnemonic: str
    operands: str
    line_no: int


@dataclass(frozen=True)
class AsmFunction:
    """One function's instruction stream with label -> instruction index map."""

    name: str
    lines: tuple[Instruction, ...]
    labels: dict[str, int]


@dataclass(frozen=True)
class ParsedFunction:
    """A function plus its recovered block structure."""

    function: AsmFunction
    blocks: tuple[tuple[int, ...], ...]  # instruction indices per block
    edges: tuple[tuple[int, int], ...]
    exits: tuple[int, ...]
    indirect_blocks: tuple[int, ...]

    @property
    def name(self) -> str:
        return self.function.name


def is_conditional_jump(mnemonic: str) -> bool:
    return mnemonic not in JMP_MNEMONICS and _COND_JUMP_RE.match(mnemonic) is not None


def _strip_comment(line: str) -> str:
    return line.split(";", 1)[0]


def _scan_lines(text: str) -> list[tuple[int, list[str], str]]:
    """Yield (line_no, leading labels, instruction text or '') per source line."""
    rows: list[tuple[int, list[str], str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = _strip_comment(raw).strip()
        if not body:
            continue
        labels: list[str] = []
        while True:
            m = _LABEL_RE.match(body)
            if not m:
                break
            labels.append(m.group(1))
            body = body[m.end():].strip()
        if body.startswith("."):
            body = ""  # directive
        if labels or body:
            rows.append((line_no, labels, body))
    return rows


def _jump_targets(rows: Sequence[tuple[int, list[str], str]]) -> set[str]:
    targets: set[str] = set()
    for _no, _labels, body in rows:
        if not body:
            continue
        parts = body.split(None, 1)
        mnem = parts[0].lower()
        if mnem in JMP_MNEMONICS or is_conditional_jump(mnem):
            if len(parts) > 1:
                targets.add(_jump_operand(parts[1]))
    return targets


def parse_listing(text: str) -> list[ParsedFunction]:
    """Split a listing into functions and recover each function's CFG."""
    rows = _scan_lines(text)
    targets = _jump_targets(rows)
    functions: list[AsmFunction] = []
    name: str | None = None
    lines: list[Instruction] = []
    labels: dict[str, int] = {}
    after_terminator = True
    anon = 0

    def flush() -> None:
        nonlocal lines, labels, name
        if name is not None:
            if not lines:
                raise AsmParseError("empty-function", f"function {name!r} has no instructions")
            functions.append(AsmFunction(name, tuple(lines), dict(labels)))
        lines, labels, name = [], {}, None

    for line_no, line_labels, body in rows:
        for label in line_labels:
            starts_function = label not in targets and (after_terminator or name is None)
            if starts_function:
                flush()
                name = label
            else:
                if name is None:
                    name = f"sub_{anon}"
                    anon += 1
                labels[label] = len(lines)
        if body:
            if name is None:
                name = f"sub_{anon}"
                anon += 1
            parts = body.split(None, 1)
            mnem = parts[0].lower()
            operands = parts[1].strip() if len(parts) > 1 else ""
            lines.append(Instruction(mnem, operands, line_no))
            after_terminator = mnem in RET_MNEMONICS or mnem in JMP_MNEMONICS
    flush()
    return [_build_cfg(fn) for fn in functions]


_IDENT_RE = re.compile(r"^[A-Za-z_.$@][\w.$@]*$")
_JUMP_DISTANCE_RE = re.compile(r"^(?:short|near(?:\s+ptr)?)\s+", re.IGNORECASE)


def _jump_operand(operands: str) -> str:
    """A jump's operand without a leading `short`, `near` or `near ptr`, the
    distance keywords IDA and MASM listings write before a jump's label."""
    return _JUMP_DISTANCE_RE.sub("", operands.strip(), count=1)


def _operand_is_indirect(operand: str) -> bool:
    """True when a jump operand is not a plain label (register/memory/computed)."""
    tok = operand.strip()
    if not tok:
        return True
    if "[" in tok or "*" in tok:
        return True
    if tok.lower() in REGISTERS:
        return True
    return _IDENT_RE.match(tok) is None


def _build_cfg(fn: AsmFunction) -> ParsedFunction:
    n = len(fn.lines)
    leaders = {0}
    for idx in fn.labels.values():
        if idx < n:
            leaders.add(idx)
    for i, ins in enumerate(fn.lines):
        m = ins.mnemonic
        if m in RET_MNEMONICS or m in JMP_MNEMONICS or m in CALL_MNEMONICS or is_conditional_jump(m):
            if i + 1 < n:
                leaders.add(i + 1)
    starts = sorted(leaders)
    block_of = {}
    blocks: list[tuple[int, ...]] = []
    for bi, start in enumerate(starts):
        end = starts[bi + 1] if bi + 1 < len(starts) else n
        blocks.append(tuple(range(start, end)))
        for i in range(start, end):
            block_of[i] = bi

    END = -1  # jump to a trailing label: leaves the function, no edge

    def target_block(label: str, ins: Instruction) -> int:
        if label not in fn.labels:
            raise AsmParseError("unknown-jump-target",
                                f"jump target {label!r} is not defined", ins.line_no)
        idx = fn.labels[label]
        return END if idx >= n else block_of[idx]

    edges: set[tuple[int, int]] = set()
    indirect: set[int] = set()
    for bi, block in enumerate(blocks):
        last = fn.lines[block[-1]]
        m = last.mnemonic
        has_next = bi + 1 < len(blocks)
        if m in RET_MNEMONICS:
            continue
        if m in JMP_MNEMONICS:
            target = _jump_operand(last.operands)
            if _operand_is_indirect(target):
                indirect.add(bi)
                continue
            tb = target_block(target, last)
            if tb == bi:
                indirect.add(bi)  # self-looping block is unrepresentable; flag it
            elif tb != END:
                edges.add((bi, tb))
            continue
        if is_conditional_jump(m):
            target = _jump_operand(last.operands)
            if _operand_is_indirect(target):
                indirect.add(bi)
            else:
                tb = target_block(target, last)
                if tb != bi and tb != END:
                    edges.add((bi, tb))
            if has_next:
                edges.add((bi, bi + 1))
            continue
        if has_next:  # call terminators and plain fallthrough into a label
            edges.add((bi, bi + 1))
    out_deg = [0] * len(blocks)
    for i, _j in edges:
        out_deg[i] += 1
    exits = tuple(bi for bi in range(len(blocks)) if out_deg[bi] == 0)
    return ParsedFunction(function=fn, blocks=tuple(blocks), edges=tuple(sorted(edges)),
                          exits=exits, indirect_blocks=tuple(sorted(indirect)))


# ---------------------------------------------------------------------------
# semantic stripping and tokenization


def _classify_word(word: str) -> str:
    low = word.lower()
    if low in REGISTERS or low in OPERAND_KEYWORDS:
        return word
    return SYM_TOKEN


_WORD_OR_NUM_RE = re.compile(r"0[xX][0-9A-Fa-f]+|\d\w*|[A-Za-z_.$@][\w.$@]*")


def strip_operands(operands: str) -> str:
    """Replace named symbols in an operand string with `<sym>`.

    Numeric literals are matched first so hex digits are not mistaken for
    identifiers.
    """
    def sub(m: re.Match) -> str:
        word = m.group(0)
        if word[0].isdigit():
            return word
        return _classify_word(word)

    return _WORD_OR_NUM_RE.sub(sub, operands)


def strip_semantics(fn: AsmFunction) -> AsmFunction:
    """Drop comments (already removed at scan) and symbol names from operands.

    Registers, immediates, and mnemonics survive verbatim; any other
    identifier becomes the `<sym>` placeholder.
    """
    new_lines = tuple(
        Instruction(ins.mnemonic, strip_operands(ins.operands), ins.line_no)
        for ins in fn.lines
    )
    return AsmFunction(fn.name, new_lines, dict(fn.labels))


def tokenize_instruction(ins: Instruction) -> list[str]:
    """Mnemonic plus operand tokens (identifiers, numbers, punctuation)."""
    tokens = [ins.mnemonic]
    tokens.extend(_TOKEN_RE.findall(ins.operands))
    return [t for t in tokens if t != ","]


def function_tokens(fn: AsmFunction) -> list[str]:
    out: list[str] = []
    for ins in fn.lines:
        out.extend(tokenize_instruction(ins))
    return out


def function_to_graph(parsed: ParsedFunction, vocab: Vocab, v_max: int) -> CfgGraph:
    """Encode a parsed (and stripped) function as an unlabeled CfgGraph."""
    fn = parsed.function
    nodes = []
    for block in parsed.blocks:
        toks: list[str] = []
        for idx in block:
            toks.extend(tokenize_instruction(fn.lines[idx]))
        nodes.append(encode_block(toks, vocab, v_max))
    return make_graph(id=fn.name, nodes=nodes, edges=list(parsed.edges), entry=0,
                      exits=list(parsed.exits))
