"""Seeded synthetic EHR generator.

Produces the five dataset files (notes, labels, and the three structured
record files) with controllable label-signal routing: each label draws its
evidence from the text, from the structured records, or from both. Text
evidence is a label-specific marker bigram planted into a short segment of
the document; structured evidence is either a perfectly indicative event
item or a shifted time-series mean, alternating across tabular labels.
Strength 0 plants nothing, leaving labels independent of all features.

Everything is a pure function of (spec, seed): the same pair yields
byte-identical files.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dataset import as_number, save_labels, save_notes, write_jsonl

CATEGORY_CYCLE = ("lab_abnormal", "drug", "organism", "specimen", "antibiotic")

SOURCE_KINDS = ("text", "tabular", "both")


@dataclass
class SyntheticSpec:
    n_docs: int = 96
    n_labels: int = 8
    vocab_size: int = 240
    doc_len_min: int = 30
    doc_len_max: int = 60
    # background structured content, independent of all labels
    n_ts_classes: int = 2
    n_items: int = 10
    n_singletons: int = 2
    label_prior: float = 0.35
    # per label: where its evidence lives and how reliably it is planted
    sources: tuple[str, ...] = ()
    strengths: tuple[float, ...] = ()

    def __post_init__(self):
        for name, low, kind in (("n_docs", 1, int), ("n_labels", 1, int), ("vocab_size", 1, int),
                                ("doc_len_min", 4, int), ("doc_len_max", 4, int),
                                ("n_ts_classes", 0, int), ("n_items", 0, int),
                                ("n_singletons", 0, int), ("label_prior", 0.0, float)):
            setattr(self, name, as_number(getattr(self, name), name, low, kind))
        if not self.sources:
            self.sources = tuple(
                SOURCE_KINDS[l % len(SOURCE_KINDS)] for l in range(self.n_labels)
            )
        self.strengths = tuple(as_number(s, "strengths", 0.0, float)
                               for s in self.strengths or (1.0,) * self.n_labels)
        if len(self.sources) != self.n_labels:
            raise ValueError(
                f"{len(self.sources)} sources for {self.n_labels} labels"
            )
        if len(self.strengths) != self.n_labels:
            raise ValueError(
                f"{len(self.strengths)} strengths for {self.n_labels} labels"
            )
        bad = [s for s in self.sources if s not in SOURCE_KINDS]
        if bad:
            raise ValueError(f"unknown signal sources: {bad}")
        if any(s > 1.0 for s in self.strengths):
            raise ValueError("strengths must lie in [0, 1]")
        if not 0.0 < self.label_prior < 1.0:
            raise ValueError(f"label_prior must be in (0, 1), got {self.label_prior}")
        # marker bigrams reserve the first 2 * n_labels tokens
        if self.vocab_size < 2 * self.n_labels + 20:
            raise ValueError(
                f"vocab_size {self.vocab_size} too small for {self.n_labels} "
                "marker bigrams plus background"
            )
        if self.doc_len_min > self.doc_len_max:
            raise ValueError("need 4 <= doc_len_min <= doc_len_max")


def lift_spec(n_docs: int = 96, strength: float = 1.0) -> SyntheticSpec:
    """The multimodal-lift preset: 8 labels, half of them invisible to the
    text, one needing both modalities."""
    return SyntheticSpec(
        n_docs=n_docs,
        n_labels=8,
        sources=(
            "tabular", "tabular", "tabular", "tabular",
            "text", "text", "text", "both",
        ),
        strengths=tuple(strength for _ in range(8)),
    )


def standard_spec(n_docs: int = 400, n_labels: int = 50) -> SyntheticSpec:
    """A larger mixed-source set sized so documents average about 5.7
    labels, matching the label density the engine is meant for."""
    return SyntheticSpec(
        n_docs=n_docs,
        n_labels=n_labels,
        vocab_size=2 * n_labels + 300,
        label_prior=5.7 / n_labels,
        doc_len_min=60,
        doc_len_max=120,
        n_ts_classes=4,
        n_items=20,
        n_singletons=3,
    )


def token_name(index: int) -> str:
    """Deterministic all-alphabetic token for an index (base-26, width 4)."""
    letters = []
    for _ in range(4):
        letters.append(chr(ord("a") + index % 26))
        index //= 26
    return "".join(reversed(letters))


def marker_tokens(label: int) -> tuple[str, str]:
    return token_name(2 * label), token_name(2 * label + 1)


def signal_item(label: int, part: str) -> tuple[str, str]:
    """(category, item_id) carrying a tabular label's signal."""
    offset = 1000 if part == "tabular" else 2000
    return CATEGORY_CYCLE[label % len(CATEGORY_CYCLE)], f"sig{offset + label}"


@dataclass
class GeneratedPaths:
    notes: str
    labels: str
    timeseries: str
    events: str
    singletons: str

    def as_dict(self) -> dict[str, str]:
        return asdict(self)


def _plant_bigram(tokens: list[str], used: set[int], pair, rng) -> None:
    """Overwrite two adjacent positions with a marker bigram, avoiding
    already-planted positions when possible."""
    last = len(tokens) - 2
    for _ in range(30):
        p = int(rng.integers(0, last + 1))
        if p not in used and p + 1 not in used:
            break
    used.update((p, p + 1))
    tokens[p], tokens[p + 1] = pair


def generate_dataset(spec: SyntheticSpec, seed: int, out_dir) -> GeneratedPaths:
    """Write the five dataset files for (spec, seed) into out_dir."""
    rng = np.random.default_rng(as_number(seed, "seed", 0))
    os.makedirs(out_dir, exist_ok=True)

    n_background = spec.vocab_size - 2 * spec.n_labels
    sqrt_prior = math.sqrt(spec.label_prior)
    label_names = [f"label_{l:02d}" for l in range(spec.n_labels)]
    # Tabular labels alternate indicator-item and time-series evidence.
    tabular_rank = {}
    rank = 0
    for l, src in enumerate(spec.sources):
        if src == "tabular":
            tabular_rank[l] = rank
            rank += 1

    notes: dict[str, str] = {}
    labels: dict[str, list[str]] = {}
    ts_rows: list[dict] = []
    event_rows: list[dict] = []
    singleton_rows: list[dict] = []

    for d in range(spec.n_docs):
        aid = f"adm{d:05d}"

        length = int(rng.integers(spec.doc_len_min, spec.doc_len_max + 1))
        background = rng.integers(0, n_background, size=length)
        tokens = [token_name(2 * spec.n_labels + int(b)) for b in background]
        used_positions: set[int] = set()

        gold: list[str] = []

        def add_event(category: str, item: str) -> None:
            event_rows.append(
                {"admission_id": aid, "category": category, "item_id": item}
            )

        def add_series(class_id: str, values) -> None:
            for step, v in enumerate(values):
                ts_rows.append(
                    {
                        "admission_id": aid,
                        "class_id": class_id,
                        "timestamp": float(step),
                        "value": float(v),
                    }
                )

        # background structured content first, so signal placement cannot
        # depend on label draws
        for c in range(spec.n_ts_classes):
            if rng.uniform() < 0.8:
                k = int(rng.integers(3, 9))
                add_series(f"bg_class{c}", rng.normal(0.0, 1.0, size=k))
        for j in range(spec.n_items):
            if rng.uniform() < 0.2:
                add_event(CATEGORY_CYCLE[j % len(CATEGORY_CYCLE)], f"bg{j}")
        for j in range(spec.n_singletons):
            if rng.uniform() < 0.9:
                singleton_rows.append(
                    {
                        "admission_id": aid,
                        "field": f"num{j}",
                        "value": float(rng.normal(0.0, 1.0)),
                    }
                )

        for l, (src, strength) in enumerate(zip(spec.sources, spec.strengths)):
            if src == "both":
                text_part = rng.uniform() < sqrt_prior
                tab_part = rng.uniform() < sqrt_prior
                positive = text_part and tab_part
                if text_part and rng.uniform() < strength:
                    _plant_bigram(tokens, used_positions, marker_tokens(l), rng)
                if tab_part and rng.uniform() < strength:
                    add_event(*signal_item(l, "both"))
            else:
                positive = rng.uniform() < spec.label_prior
                if src == "text":
                    if positive and rng.uniform() < strength:
                        _plant_bigram(tokens, used_positions, marker_tokens(l), rng)
                elif tabular_rank[l] % 2 == 0:
                    if positive and rng.uniform() < strength:
                        add_event(*signal_item(l, "tabular"))
                else:
                    k = int(rng.integers(3, 7))
                    center = 2.0 * strength if positive else 0.0
                    add_series(f"vital{l}", rng.normal(center, 0.5, size=k))
            if positive:
                gold.append(label_names[l])

        notes[aid] = " ".join(tokens)
        labels[aid] = gold

    paths = GeneratedPaths(**{f.name: os.path.join(out_dir, f"{f.name}.jsonl")
                              for f in fields(GeneratedPaths)})
    save_notes(notes, paths.notes)
    save_labels(labels, paths.labels)
    write_jsonl(ts_rows, paths.timeseries)
    write_jsonl(event_rows, paths.events)
    write_jsonl(singleton_rows, paths.singletons)
    return paths
