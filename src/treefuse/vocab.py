"""Token vocabulary built from training notes.

Cleaning rule: lowercase everything, then drop any token containing a
non-alphabetic character. Ids are dense, with id 0 reserved for the unknown
token; known tokens are numbered in lexicographic order so the same notes
always produce the same vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .dataset import DatasetError, Integer, check, json_sha256, read_json, write_json

UNK_TOKEN = "<unk>"
UNK_ID = 0

VOCAB_FORMAT_VERSION = 1


def clean_tokens(text: str) -> list[str]:
    """Whitespace tokenization, lowercased, alphabetic tokens only."""
    return [t for t in text.lower().split() if t.isalpha()]


@dataclass
class Vocabulary:
    token_to_id: dict[str, int] = field(default_factory=lambda: {UNK_TOKEN: UNK_ID})

    def __len__(self) -> int:
        return len(self.token_to_id)

    def encode(self, text: str, max_len: int) -> np.ndarray:
        """Token ids for a document, truncated to max_len.

        A document with no surviving tokens encodes as a single unknown
        token so every document has at least one position.
        """
        if max_len <= 0:
            raise ValueError(f"max_len must be positive, got {max_len}")
        ids = [
            self.token_to_id.get(tok, UNK_ID) for tok in clean_tokens(text)[:max_len]
        ]
        if not ids:
            ids = [UNK_ID]
        return np.asarray(ids, dtype=np.int64)

    def sha256(self) -> str:
        return json_sha256(self.token_to_id)


def build_vocabulary(texts) -> Vocabulary:
    """Collect every surviving training token, lexicographically numbered
    after the reserved unknown id."""
    tokens: set[str] = set()
    for text in texts:
        tokens.update(clean_tokens(text))
    tokens.discard(UNK_TOKEN)
    mapping = {UNK_TOKEN: UNK_ID}
    for i, tok in enumerate(sorted(tokens), start=1):
        mapping[tok] = i
    return Vocabulary(token_to_id=mapping)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    write_json({"format_version": VOCAB_FORMAT_VERSION, "tokens": vocab.token_to_id}, path)


def load_vocabulary(path) -> Vocabulary:
    """``save_vocabulary``'s file; its ids must be 0..n-1, the unknown token's 0."""
    payload = read_json(path)
    check(payload, {"format_version": Literal[VOCAB_FORMAT_VERSION],
                    "tokens": dict[str, Integer]}, f"vocabulary {path}")
    tokens = payload["tokens"]
    if tokens.get(UNK_TOKEN) != UNK_ID or sorted(tokens.values()) != list(range(len(tokens))):
        raise DatasetError(f"vocabulary {path}: 'tokens' ids are not 0..{len(tokens) - 1} "
                           f"with {UNK_TOKEN!r} at {UNK_ID}")
    return Vocabulary(token_to_id=tokens)
