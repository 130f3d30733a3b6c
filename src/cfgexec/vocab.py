"""Subword vocabulary: greedy pair-merge training with character fallback.

Training builds pieces bottom-up from characters by repeatedly merging the
most frequent adjacent pair (ties broken lexicographically), so encoding is
deterministic and any token whose characters appeared in training encodes
without unknowns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .nn import BOS_ID, EOS_ID, UNK_ID

VOCAB_FORMAT_VERSION = 1
RESERVED = ("<pad>", "<unk>", "<bos>", "<eos>")


class VocabError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class Vocab:
    pieces: tuple[str, ...]

    def __post_init__(self) -> None:
        if tuple(self.pieces[:4]) != RESERVED:
            raise VocabError("schema-violation", f"first pieces must be {RESERVED}")
        if len(set(self.pieces)) != len(self.pieces):
            raise VocabError("schema-violation", "duplicate pieces")

    @property
    def size(self) -> int:
        return len(self.pieces)

    @cached_property
    def piece_ids(self) -> dict[str, int]:
        return {piece: i for i, piece in enumerate(self.pieces)}

    @cached_property
    def max_piece_len(self) -> int:
        return max(len(piece) for piece in self.pieces)


def train_vocab(corpus: Iterable[str], target_size: int) -> Vocab:
    """Greedy pair-merge (BPE-style) vocabulary over whole corpus tokens.

    Pieces start from every character seen in the corpus; merges continue
    until `target_size` pieces exist (reserved ids included) or no pair
    repeats. Deterministic: pair ties break lexicographically.
    """
    tokens: dict[tuple[str, ...], int] = {}
    for tok in corpus:
        if not tok:
            continue
        key = tuple(tok)
        tokens[key] = tokens.get(key, 0) + 1
    charset = sorted({c for key in tokens for c in key})
    if target_size < len(charset) + len(RESERVED):
        raise VocabError(
            "target-size-too-small",
            f"need at least {len(charset) + len(RESERVED)} pieces, got {target_size}",
        )
    pieces: list[str] = list(RESERVED) + charset
    work = dict(tokens)
    while len(pieces) < target_size:
        counts: dict[tuple[str, str], int] = {}
        for key, freq in work.items():
            for i in range(len(key) - 1):
                pair = (key[i], key[i + 1])
                counts[pair] = counts.get(pair, 0) + freq
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merged = best[0] + best[1]
        if merged in pieces:
            break
        pieces.append(merged)
        new_work: dict[tuple[str, ...], int] = {}
        for key, freq in work.items():
            out: list[str] = []
            i = 0
            while i < len(key):
                if i + 1 < len(key) and key[i] == best[0] and key[i + 1] == best[1]:
                    out.append(merged)
                    i += 2
                else:
                    out.append(key[i])
                    i += 1
            new_key = tuple(out)
            new_work[new_key] = new_work.get(new_key, 0) + freq
        work = new_work
    return Vocab(pieces=tuple(pieces))


def encode_token(token: str, vocab: Vocab) -> list[int]:
    """Greedy longest-match segmentation; unknown characters map to <unk>."""
    ids = vocab.piece_ids
    longest = vocab.max_piece_len
    out: list[int] = []
    i = 0
    while i < len(token):
        for j in range(min(len(token), i + longest), i, -1):
            piece_id = ids.get(token[i:j])
            if piece_id is not None:
                out.append(piece_id)
                i = j
                break
        else:
            out.append(UNK_ID)
            i += 1
    return out


def encode_block(tokens: Sequence[str], vocab: Vocab, v_max: int) -> list[int]:
    """Encode a block's token stream as [bos] pieces [eos], truncated to v_max.

    Tokens past the cut are not encoded: once [bos] plus the pieces so far
    fill v_max, the rest of the stream cannot reach the output. Raises
    ValueError for v_max < 1.
    """
    if v_max < 1:
        raise ValueError(f"v_max must be >= 1, got {v_max}")
    out = [BOS_ID]
    for tok in tokens:
        if len(out) >= v_max:
            break
        out.extend(encode_token(tok, vocab))
    out.append(EOS_ID)
    return out[:v_max]


def write_vocab_file(vocab: Vocab, path: str | Path) -> None:
    payload = {"format_version": VOCAB_FORMAT_VERSION, "pieces": list(vocab.pieces)}
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def read_vocab_file(path: str | Path) -> Vocab:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise VocabError("parse-error", f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict) or data.get("format_version") != VOCAB_FORMAT_VERSION:
        raise VocabError("schema-violation", "missing or wrong format_version")
    pieces = data.get("pieces")
    if not isinstance(pieces, list) or not all(isinstance(s, str) for s in pieces):
        raise VocabError("schema-violation", "pieces must be a list of strings")
    return Vocab(pieces=tuple(pieces))
