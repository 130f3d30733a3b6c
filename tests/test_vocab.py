"""Subword vocabulary training and encoding."""

import numpy as np
import pytest

from cfgexec.nn import BOS_ID, EOS_ID, UNK_ID
from cfgexec.vocab import (
    Vocab,
    VocabError,
    encode_block,
    encode_token,
    read_vocab_file,
    train_vocab,
    write_vocab_file,
)

from oracles import train_vocab_reference


class TestTrain:
    def test_repeated_token_becomes_piece(self):
        vocab = train_vocab(["mov", "mov"], 16)
        assert "mov" in vocab.pieces

    def test_merge_order_deterministic(self):
        corpus = ["mov", "mov", "eax", "eax", "mov"]
        a = train_vocab(corpus, 20)
        b = train_vocab(corpus, 20)
        assert a.pieces == b.pieces

    def test_target_size_too_small(self):
        with pytest.raises(VocabError) as err:
            train_vocab(["abcdef"], 8)
        assert err.value.code == "target-size-too-small"

    def test_reserved_ids_fixed(self):
        vocab = train_vocab(["xy"], 10)
        assert vocab.pieces[:4] == ("<pad>", "<unk>", "<bos>", "<eos>")
        assert vocab.piece_ids["<pad>"] == 0
        assert vocab.piece_ids["<unk>"] == UNK_ID

    def test_ids_dense(self):
        vocab = train_vocab(["mov", "add", "mov"], 24)
        ids = sorted(vocab.piece_ids.values())
        assert ids == list(range(vocab.size))

    def test_size_capped_at_target(self):
        vocab = train_vocab(["movaps", "movaps", "movapd"] * 3, 12)
        assert vocab.size <= 12


def train_both(corpus, target_size):
    """Both trainers' pieces, or both errors' code and message."""
    out = []
    for trainer in (train_vocab, train_vocab_reference):
        try:
            out.append(trainer(corpus, target_size).pieces)
        except VocabError as err:
            out.append((err.code, str(err)))
    return out


class TestMatchesFullRecount:
    """The incremental trainer against the loop that recounts every pair at
    every merge, piece for piece."""

    @pytest.mark.parametrize("alphabet", ["ab", "abc"])
    def test_random_corpora(self, alphabet):
        rng = np.random.default_rng(len(alphabet))
        for _ in range(60):
            corpus = ["".join(rng.choice(list(alphabet), size=int(rng.integers(0, 9))))
                      for _ in range(int(rng.integers(1, 40)))]
            corpus += ["", alphabet[0] * int(rng.integers(2, 7))]  # runs: overlapping pairs
            floor = len(set("".join(corpus))) + 4
            for target in (floor, floor + 1, floor + 5, floor + 20, floor + 200):
                ours, ref = train_both(corpus, target)
                assert ours == ref, (corpus, target)

    def test_runs_of_one_letter(self):
        corpus = ["aaaa", "aaa", "aaaaaaa", "aa", "a", ""]
        for target in range(5, 12):
            ours, ref = train_both(corpus, target)
            assert ours == ref

    def test_tied_counts_break_lexicographically(self):
        corpus = ["ba", "ab", "cd", "dc"]  # four pairs, each seen once
        ours, ref = train_both(corpus, 9)
        assert ours == ref
        assert ours[-1] == "ab"

    def test_passes_over_a_merge_that_is_already_a_piece(self):
        # the merges rebuild "<eos>", a reserved piece, before ("a", "b") is
        # merged; that pair is passed over and training goes on to "ab"
        corpus = ["<eos>", "<eos>", "ab"]
        ours, ref = train_both(corpus, 40)
        assert ours == ref
        assert ours[-4:] == ("<e", "<eo", "<eos", "ab")
        assert ours.count("<eos>") == 1

    def test_target_size_too_small(self):
        ours, ref = train_both(["abcdef", "ab"], 9)
        assert ours == ref
        assert ours[0] == "target-size-too-small"


class TestEncode:
    def test_empty_block(self):
        vocab = train_vocab(["mov"], 10)
        assert encode_block([], vocab, 8) == [BOS_ID, EOS_ID]

    def test_char_fallback_no_unk(self):
        vocab = train_vocab(["mov", "add", "vd", "qa", "7"], 32)
        ids = encode_token("vmovdqa7", vocab)
        assert UNK_ID not in ids

    def test_unseen_char_maps_to_unk(self):
        vocab = train_vocab(["mov"], 10)
        assert UNK_ID in encode_token("xyz", vocab)

    def test_deterministic(self):
        vocab = train_vocab(["mov eax", "mov ebx"], 24)
        toks = ["mov", "eax", "5"]
        assert encode_block(toks, vocab, 16) == encode_block(toks, vocab, 16)

    def test_truncation_keeps_prefix(self):
        vocab = train_vocab(["abc"], 12)
        full = encode_block(["abc", "abc", "abc"], vocab, 100)
        cut = encode_block(["abc", "abc", "abc"], vocab, 3)
        assert cut == full[:3]
        assert len(cut) == 3

    def test_greedy_longest_match(self):
        vocab = train_vocab(["aaab", "aaab", "aaab"], 16)
        # "aaab" merged fully; encoding it must use the single piece
        assert encode_token("aaab", vocab) == [vocab.piece_ids["aaab"]]

    def test_length_bound(self):
        vocab = train_vocab(["mov", "rax"], 20)
        toks = ["mov", "rax"]
        ids = encode_block(toks, vocab, 64)
        assert len(ids) <= 2 + sum(len(encode_token(t, vocab)) for t in toks)


CORPUS = ("mov eax , dword ptr [ rbp - 0x14 ] add rax , 1 cmp eax , 0 jz <sym> "
          "lea rdi , [ rip + <sym> ] call <sym> movzx ecx , byte ptr [ rax ] "
          "xor eax , eax pop rbp ret vmovdqa ymm0 , [ rsp + 0x20 ]").split() * 3


class TestEncodeBlockCut:
    def full_encode(self, toks, vocab, v_max):
        out = [BOS_ID]
        for tok in toks:
            out.extend(encode_token(tok, vocab))
        return (out + [EOS_ID])[:v_max]

    def test_matches_full_encode_then_truncate(self):
        vocab = train_vocab(CORPUS, 64)
        blocks = [
            [],
            ["mov"],
            CORPUS[:7],
            CORPUS,
            ["Ωmov", "eax", "<unk>", "<eos>", "<pad>rax", "ζ", "0x14"],
            ["<bos>"] * 40,
        ]
        for toks in blocks:
            for v_max in (1, 2, 4, 32, 10**4):
                assert encode_block(toks, vocab, v_max) == self.full_encode(toks, vocab, v_max)

    def test_v_max_below_one_rejected(self):
        vocab = train_vocab(CORPUS, 64)
        for v_max in (0, -3):
            with pytest.raises(ValueError, match="v_max must be >= 1"):
                encode_block(CORPUS, vocab, v_max)

    def test_stops_encoding_at_the_cut(self, monkeypatch):
        import cfgexec.vocab

        vocab = train_vocab(CORPUS, 64)
        calls = []

        def counting(token, voc):
            calls.append(token)
            return encode_token(token, voc)

        monkeypatch.setattr(cfgexec.vocab, "encode_token", counting)
        assert encode_block(CORPUS, vocab, 4) == self.full_encode(CORPUS, vocab, 4)
        assert len(calls) <= 3

    def test_piece_ids_built_once(self):
        vocab = train_vocab(CORPUS, 64)
        assert vocab.piece_ids is vocab.piece_ids


class TestVocabFile:
    def test_roundtrip(self, tmp_path):
        vocab = train_vocab(["mov eax", "add ebx"], 30)
        path = tmp_path / "vocab.json"
        write_vocab_file(vocab, path)
        assert read_vocab_file(path).pieces == vocab.pieces

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 1, "pieces": [1, 2]}')
        with pytest.raises(VocabError):
            read_vocab_file(path)

    def test_bad_reserved_rejected(self):
        with pytest.raises(VocabError):
            Vocab(pieces=("a", "b", "c", "d"))
