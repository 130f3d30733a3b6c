"""Assembly parsing: blocks, edges, stripping, and graph conversion."""

import numpy as np
import pytest

from cfgexec.asm import (
    AsmParseError,
    function_to_graph,
    parse_listing,
    strip_operands,
    strip_semantics,
    tokenize_instruction,
)
from cfgexec.graphs import validate_graph
from cfgexec.vocab import train_vocab

from oracles import interpret_cfg


def parse_one(text):
    fns = parse_listing(text)
    assert len(fns) == 1
    return fns[0]


class TestBlocks:
    def test_straight_line_single_block(self):
        pf = parse_one("mov eax, 1\nadd eax, 2\nret\n")
        assert len(pf.blocks) == 1
        assert pf.edges == ()
        assert pf.exits == (0,)

    def test_conditional_jump_three_blocks(self):
        pf = parse_one("cmp eax, 0\njz L\nmov ebx, 1\nL: ret\n")
        assert len(pf.blocks) == 3
        assert set(pf.edges) == {(0, 1), (0, 2), (1, 2)}
        assert pf.exits == (2,)

    def test_unknown_jump_target(self):
        with pytest.raises(AsmParseError) as err:
            parse_listing("jmp missing\n")
        assert err.value.code == "unknown-jump-target"

    def test_unconditional_jump_no_fallthrough(self):
        pf = parse_one("jmp L\nmov eax, 1\nL: ret\n")
        assert (0, 1) not in pf.edges
        assert (0, 2) in pf.edges

    def test_call_terminates_block_with_fallthrough(self):
        pf = parse_one("call foo\nmov eax, 1\nret\n")
        assert len(pf.blocks) == 2
        assert pf.edges == ((0, 1),)

    def test_indirect_jump_flagged_no_edge(self):
        pf = parse_one("cmp eax, 1\njmp rax\nret\n")
        assert pf.indirect_blocks == (0,)
        assert all(e[0] != 0 for e in pf.edges)

    @pytest.mark.parametrize("distance", ["", "short ", "near ", "near ptr ", "SHORT "])
    def test_jump_distance_keyword_names_the_label(self, distance):
        text = (f"g:\ntest eax, eax\njnz {distance}skip\njmp {distance}done\n"
                "skip:\nmov eax, 1\ndone:\nret\n")
        pf = parse_one(text)
        assert pf.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
        assert pf.indirect_blocks == ()

    def test_near_ptr_memory_jump_stays_indirect(self):
        pf = parse_one("cmp eax, 1\njmp near ptr [rax]\nret\n")
        assert pf.indirect_blocks == (0,)

    def test_empty_function_error(self):
        with pytest.raises(AsmParseError) as err:
            parse_listing("f:\ng: ret\n")
        assert err.value.code == "empty-function"

    def test_two_functions_split(self):
        text = "f:\nmov eax, 1\nret\ng:\nxor eax, eax\nret\n"
        fns = parse_listing(text)
        assert [p.name for p in fns] == ["f", "g"]

    def test_loop_label_stays_in_function(self):
        text = "f:\nL1: dec eax\njnz L1\nret\n"
        fns = parse_listing(text)
        assert len(fns) == 1
        pf = fns[0]
        assert (0, 0) not in pf.edges  # single-block self loop dropped
        assert len(pf.blocks) == 2
        assert (0, 1) in pf.edges

    def test_comment_only_and_directives_ignored(self):
        pf = parse_one("; header\n.text\nmov eax, 1 ; set\nret\n")
        assert len(pf.function.lines) == 2

    def test_matches_instruction_level_reference(self):
        # every generated label is referenced by a jump, so all labels are
        # local branch targets and the listing parses as one function
        rng = np.random.default_rng(0)
        plain = ["mov eax, 1", "add ebx, 2", "xor ecx, ecx", "cmp eax, ebx", "nop"]
        for trial in range(80):
            k = int(rng.integers(4, 18))
            n_labels = int(rng.integers(0, min(4, k // 2) + 1))
            label_positions = sorted(
                rng.choice(k, size=n_labels, replace=False).tolist())
            labels = {f"L{j}": pos for j, pos in enumerate(label_positions)}
            names = list(labels)
            forced_jump_slots = {}
            if names:
                slots = rng.choice(k, size=len(names), replace=False)
                forced_jump_slots = {int(s): names[j] for j, s in enumerate(slots)}
            lines = []
            for i in range(k):
                if i in forced_jump_slots:
                    mnem = "jmp" if rng.random() < 0.4 else "jnz"
                    lines.append((mnem, forced_jump_slots[i]))
                    continue
                roll = rng.random()
                if roll < 0.15 and names:
                    target = names[int(rng.integers(len(names)))]
                    lines.append(("jnz" if rng.random() < 0.6 else "jmp", target))
                elif roll < 0.25:
                    lines.append(("ret", ""))
                else:
                    m, _, ops = plain[int(rng.integers(len(plain)))].partition(" ")
                    lines.append((m, ops))
            text_lines = []
            rev = {pos: name for name, pos in labels.items()}
            for i, (m, ops) in enumerate(lines):
                prefix = f"{rev[i]}: " if i in rev else ""
                text_lines.append(f"{prefix}{m} {ops}".strip())
            text = "fn:\n" + "\n".join(text_lines) + "\n"
            pf = parse_listing(text)[0]
            ref_blocks, ref_edges = interpret_cfg(lines, labels)
            assert pf.blocks == tuple(ref_blocks), text
            assert list(pf.edges) == ref_edges, text


class TestStrip:
    def test_comment_removed(self):
        pf = parse_one("mov eax, 5 ; load\nret\n")
        assert pf.function.lines[0].operands == "eax, 5"

    def test_symbol_replaced(self):
        pf = parse_one("call _printf\nret\n")
        stripped = strip_semantics(pf.function)
        assert stripped.lines[0].operands == "<sym>"

    def test_registers_and_memory_untouched(self):
        pf = parse_one("lea rax, [rbp-8]\nret\n")
        stripped = strip_semantics(pf.function)
        assert stripped.lines[0].operands == "rax, [rbp-8]"

    def test_immediates_untouched(self):
        pf = parse_one("mov eax, 0x1F\nret\n")
        stripped = strip_semantics(pf.function)
        assert stripped.lines[0].operands == "eax, 0x1F"

    def test_numbers_kept_and_label_replaced(self):
        assert strip_operands("0x1f, 16, 10h") == "0x1f, 16, 10h"
        assert strip_operands("loc_401000") == "<sym>"

    def test_mixed_operand(self):
        pf = parse_one("mov eax, dword ptr [myvar+4]\nret\n")
        stripped = strip_semantics(pf.function)
        assert stripped.lines[0].operands == "eax, dword ptr [<sym>+4]"


class TestTokenize:
    def test_instruction_tokens(self):
        pf = parse_one("lea rax, [rbp-8]\nret\n")
        toks = tokenize_instruction(pf.function.lines[0])
        assert toks == ["lea", "rax", "[", "rbp", "-", "8", "]"]

    def test_graph_conversion_deterministic(self):
        text = "f:\ncmp eax, 0\njz L\nmov ebx, 1\nL: ret\n"
        vocab = train_vocab(["cmp", "jz", "mov", "ret", "eax", "ebx", "0", "1", "L"], 40)
        pf1 = parse_listing(text)[0]
        pf2 = parse_listing(text)[0]
        g1 = function_to_graph(pf1, vocab, 16)
        g2 = function_to_graph(pf2, vocab, 16)
        assert g1.nodes == g2.nodes
        assert np.array_equal(g1.adjacency, g2.adjacency)
        validate_graph(g1)

    def test_graph_edges_match_parse(self):
        text = "f:\ncmp eax, 0\njz L\nmov ebx, 1\nL: ret\n"
        vocab = train_vocab(["cmp eax"], 24)
        pf = parse_listing(text)[0]
        g = function_to_graph(pf, vocab, 8)
        assert set(g.edges()) == set(pf.edges)
        assert g.exits == {2}
