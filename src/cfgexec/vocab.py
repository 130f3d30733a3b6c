"""Subword vocabulary: greedy pair-merge training with character fallback.

Training builds pieces bottom-up from characters by repeatedly merging the
most frequent adjacent pair (ties broken lexicographically), so encoding is
deterministic and any token whose characters appeared in training encodes
without unknowns.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .graphs import read_text
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

    Pieces start from every character seen in the corpus. Each merge joins
    the most frequent adjacent pair of pieces, counted over every token and
    every position (a pair seen once is merged too); ties break
    lexicographically; a pair whose merged string is already a piece is
    passed over. Merges stop at `target_size` pieces (reserved ids included)
    or when no other pair is left, so the result can be smaller than
    `target_size`.

    The pair counts are kept incrementally, in the style of Sennrich, Haddow
    and Birch (ACL 2016): an index from each pair to the distinct tokens that
    hold it lets a merge re-segment only those tokens, and a heap of
    `(-count, pair)` entries, each checked against the live count when it
    reaches the top, yields the best pair.
    """
    token_counts = Counter(tok for tok in corpus if tok)
    charset = sorted({c for tok in token_counts for c in tok})
    if target_size < len(charset) + len(RESERVED):
        raise VocabError(
            "target-size-too-small",
            f"need at least {len(charset) + len(RESERVED)} pieces, got {target_size}",
        )
    pieces: list[str] = list(RESERVED) + charset
    known = set(pieces)
    freqs = list(token_counts.values())
    segs = [tuple(tok) for tok in token_counts]  # each distinct token's pieces
    counts: dict[tuple[str, str], int] = {}
    holders: dict[tuple[str, str], set[int]] = {}
    for t, seg in enumerate(segs):
        for pair in zip(seg, seg[1:]):
            counts[pair] = counts.get(pair, 0) + freqs[t]
            holders.setdefault(pair, set()).add(t)
    heap = [(-count, pair) for pair, count in counts.items()]
    heapq.heapify(heap)
    while len(pieces) < target_size:
        # stale entries (the pair's count has changed since) and pairs whose
        # merge is already a piece leave the heap
        while heap and (counts.get(heap[0][1]) != -heap[0][0] or "".join(heap[0][1]) in known):
            heapq.heappop(heap)
        if not heap:
            break
        left, right = best = heap[0][1]
        merged = left + right
        pieces.append(merged)
        known.add(merged)
        delta: Counter[tuple[str, str]] = Counter()
        for t in list(holders[best]):
            seg, freq = segs[t], freqs[t]
            out: list[str] = []
            i = 0
            while i < len(seg):
                if i + 1 < len(seg) and seg[i] == left and seg[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seg[i])
                    i += 1
            new_seg = segs[t] = tuple(out)
            old_pairs = list(zip(seg, seg[1:]))
            new_pairs = list(zip(new_seg, new_seg[1:]))
            for pair in old_pairs:
                delta[pair] -= freq
            for pair in new_pairs:
                delta[pair] += freq
            for pair in set(old_pairs).difference(new_pairs):
                holders[pair].discard(t)
            for pair in set(new_pairs).difference(old_pairs):
                holders.setdefault(pair, set()).add(t)
        for pair, change in delta.items():
            if not change:
                continue
            count = counts.get(pair, 0) + change
            if count:
                counts[pair] = count
                heapq.heappush(heap, (-count, pair))
            else:
                del counts[pair], holders[pair]
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
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise VocabError("parse-error", f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict) or data.get("format_version") != VOCAB_FORMAT_VERSION:
        raise VocabError("schema-violation", "missing or wrong format_version")
    pieces = data.get("pieces")
    if not isinstance(pieces, list) or not all(isinstance(s, str) for s in pieces):
        raise VocabError("schema-violation", "pieces must be a list of strings")
    return Vocab(pieces=tuple(pieces))
