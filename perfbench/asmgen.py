"""Seeded generator of Intel-flavored assembly listings with a known CFG.

Each function is laid out as a run of basic blocks. The generator picks every
block's terminator (plain fallthrough, call, conditional jump, unconditional
jump or return) and jump target first, then writes the text, so it knows the
blocks and edges that `cfgexec.asm.parse_listing` must recover.

Layout rules that keep the listing inside the parser's conventions:
  - a block after a plain (non-transfer) block carries a local label, since
    only labels and control transfers start blocks;
  - a block after `ret` or `jmp` is labeled only when some jump targets it,
    because an untargeted label after a terminator starts a new function; a
    `ret`/`jmp` whose successor no jump targets becomes a conditional jump,
    which keeps every block reachable by fallthrough or a jump;
  - no block jumps to itself (the parser flags such a block and drops the edge);
  - every function ends in `ret`, so the next function's name label starts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REGS64 = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11", "r12")
REGS32 = ("eax", "ebx", "ecx", "edx", "esi", "edi", "r8d", "r9d", "r10d")
CONDS = ("je", "jne", "jl", "jle", "jg", "jge", "ja", "jae", "jb", "jbe", "js", "jns")
KINDS = ("fall", "call", "cond", "jmp", "ret")
KIND_P = (0.25, 0.15, 0.35, 0.15, 0.10)


@dataclass(frozen=True)
class FunctionSpec:
    """What the generator built: block sizes in instructions and CFG edges."""

    name: str
    block_sizes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Instruction indices per block, in the parser's `ParsedFunction.blocks` form."""
        out = []
        start = 0
        for size in self.block_sizes:
            out.append(tuple(range(start, start + size)))
            start += size
        return tuple(out)


def _body_instruction(rng: np.random.Generator, fn: int) -> str:
    r64 = REGS64[int(rng.integers(len(REGS64)))]
    r32 = REGS32[int(rng.integers(len(REGS32)))]
    imm = int(rng.integers(1, 4096))
    off = 8 * int(rng.integers(1, 32))
    sym = int(rng.integers(64))
    forms = (
        f"mov {r64}, qword ptr [rbp-0x{off:x}]",
        f"mov dword ptr [rsp+0x{off:x}], {r32}",
        f"add {r32}, {imm}",
        f"sub {r64}, 0x{imm:x}",
        f"lea rdi, [rip+str_{fn}_{sym}]",
        f"mov {r64}, qword ptr [g_table_{sym}+{r64}*8]",
        f"cmp {r32}, 0x{imm:x}",
        f"test {r64}, {r64}",
        f"xor {r32}, {r32}",
        f"movzx eax, byte ptr [rdi+{r64}]",
        f"imul {r32}, {r32}, {imm}",
        f"shl {r64}, {imm % 7 + 1}",
        f"push {r64}",
        f"pop {r64}",
    )
    return forms[int(rng.integers(len(forms)))]


def _function(rng: np.random.Generator, fn: int, n_functions: int,
              n_blocks: int) -> tuple[list[str], FunctionSpec]:
    name = f"fn_{fn}"
    sizes = [int(rng.integers(2, 9)) for _ in range(n_blocks)]
    kinds = [KINDS[int(i)] for i in rng.choice(len(KINDS), size=n_blocks, p=KIND_P)]
    kinds[-1] = "ret"
    targets: dict[int, int] = {}
    for i, kind in enumerate(kinds[:-1]):
        if kind in ("cond", "jmp"):
            t = int(rng.integers(n_blocks - 1))
            targets[i] = t if t < i else t + 1  # any block but i itself
    for i in range(n_blocks - 1):
        if kinds[i] in ("jmp", "ret") and (i + 1) not in targets.values():
            if kinds[i] == "ret":
                t = int(rng.integers(n_blocks - 1))
                targets[i] = t if t < i else t + 1
            kinds[i] = "cond"
    targeted = set(targets.values())
    edges: set[tuple[int, int]] = set()
    for i, kind in enumerate(kinds):
        if kind in ("cond", "jmp"):
            edges.add((i, targets[i]))
        if kind in ("fall", "call", "cond") and i + 1 < n_blocks:
            edges.add((i, i + 1))

    def label(i: int) -> str:
        return f"{name}_L{i}"

    lines = [f"{name}:"]
    sizes[0] += 2  # the prologue belongs to block 0
    for i, kind in enumerate(kinds):
        if i in targeted or (i > 0 and kinds[i - 1] == "fall"):
            lines.append(f"{label(i)}:")
        if i == 0:
            lines.extend(("    push rbp", "    mov rbp, rsp"))
        body = sizes[i] - (2 if i == 0 else 0) - 1
        for _ in range(body):
            ins = _body_instruction(rng, fn)
            if rng.random() < 0.1:
                ins += f"  ; note {int(rng.integers(100))}"
            lines.append(f"    {ins}")
        if rng.random() < 0.05:
            lines.append("    .p2align 4")
        if kind == "fall":
            lines.append(f"    {_body_instruction(rng, fn)}")
        elif kind == "call":
            callee = int(rng.integers(n_functions))
            lines.append(f"    call fn_{callee}" if rng.random() < 0.5 else
                         f"    call qword ptr [rip+import_{callee}]")
        elif kind == "cond":
            lines.append(f"    {CONDS[int(rng.integers(len(CONDS)))]} {label(targets[i])}")
        elif kind == "jmp":
            lines.append(f"    jmp {label(targets[i])}")
        else:
            lines.append("    ret")
    return lines, FunctionSpec(name, tuple(sizes), frozenset(edges))


BLOCK_COUNTS = np.arange(6, 28)


def generate_listing(seed: int, n_functions: int) -> tuple[str, list[FunctionSpec]]:
    """Listing text plus the construction of each function, in listing order.

    Functions have 6-27 blocks, each count equally often (exactly so when
    n_functions is a multiple of 22) in a seeded order, so the seed changes
    the code but hardly the amount of it.
    """
    rng = np.random.default_rng([seed, 0x61736D])
    block_counts = rng.permutation(np.resize(BLOCK_COUNTS, n_functions))
    lines = ["; generated listing", "    .text"]
    specs = []
    for fn in range(n_functions):
        fn_lines, spec = _function(rng, fn, n_functions, int(block_counts[fn]))
        lines.extend(fn_lines)
        lines.append("")
        specs.append(spec)
    return "\n".join(lines) + "\n", specs
