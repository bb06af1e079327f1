"""Benchmark workloads and the treefuse pipeline they run.

Every stage calls the package's public functions through their module
attribute (``trees.train_ensemble(...)``, not an imported name), so the
tracer and the speed clock can wrap them from outside without touching
``src/``. BENCHMARK.json and README.md say why each workload exists.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from treefuse import dataset, metrics, model, synthetic, tabular, trees, vocab

FUSION_MODE = "attention"
MAX_DOC_TOKENS = 512
# Set-up is cheap next to fitting, so each rep repeats it and keeps the median.
SETUP_REPEATS = 5
# Scoring passes repeat until this much scoring time has accumulated.
MIN_SCORE_SECONDS = 6.0
DATA_FILES = ("notes", "labels", "timeseries", "events", "singletons")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: synthetic.SyntheticSpec
    split: tuple[float, float, float]
    epochs: int
    learning_rate: float = 1e-3
    # Test micro-F1 below this fails the run; None where one epoch leaves
    # quality at noise level.
    f1_floor: float | None = None


def _long_text_sources(n_labels: int) -> tuple[str, ...]:
    # Mostly text evidence keeps the record table narrow; every tenth label
    # still needs both modalities so the fusion path carries signal.
    return tuple("both" if l % 10 == 9 else "text" for l in range(n_labels))


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's multimodal-lift preset, trained to convergence.
        Workload(
            name="lift",
            spec=synthetic.lift_spec(n_docs=100),
            split=(0.55, 0.10, 0.35),
            epochs=5,
            learning_rate=3e-3,
            f1_floor=0.55,
        ),
        # Long documents: the LSTM recurrence dominates.
        Workload(
            name="long_text",
            spec=synthetic.SyntheticSpec(
                n_docs=120, n_labels=50, vocab_size=400,
                doc_len_min=150, doc_len_max=250, label_prior=0.3,
                n_ts_classes=0, n_items=4, n_singletons=1,
                sources=_long_text_sources(50),
            ),
            split=(0.40, 0.10, 0.50),
            epochs=1,
        ),
        # A wide record table with 50 grown trees: train_ensemble dominates.
        Workload(
            name="wide_tabular",
            spec=synthetic.SyntheticSpec(
                n_docs=130, n_labels=50, vocab_size=400,
                doc_len_min=8, doc_len_max=16, label_prior=0.4,
                n_ts_classes=25, n_items=28, n_singletons=8,
            ),
            split=(0.40, 0.10, 0.50),
            epochs=2,
        ),
    )
}


def generate(workload: Workload, seed: int, out_dir: str) -> dict[str, str]:
    """Write the workload's input files for ``seed``; returns name -> path."""
    return synthetic.generate_dataset(workload.spec, seed, out_dir).as_dict()


def inputs_sha256(paths: dict[str, str]) -> str:
    """Digest of the five input files, in a fixed order."""
    h = hashlib.sha256()
    for name in DATA_FILES:
        h.update(name.encode())
        with open(paths[name], "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def array_sha256(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype}{a.shape}".encode() + a.tobytes()).hexdigest()


class CheckFailed(Exception):
    """An output check failed. ``docs`` already-finished documents lose
    their pass, on top of any document the failure left unfinished."""

    def __init__(self, message: str, docs: int = 0):
        super().__init__(message)
        self.docs = docs


class Ops:
    """Counts operations (one document trained or scored): attempted, and
    finished with every check passed so far."""

    def __init__(self):
        self.attempted = 0
        self.good = 0
        self._pending = 0

    def begin(self, n: int) -> None:
        self.attempted += n
        self._pending = n

    def end(self) -> None:
        self.good += self._pending
        self._pending = 0

    @property
    def failed(self) -> int:
        return self.attempted - self.good


@dataclass
class Inputs:
    """Model-ready inputs: everything ``setup`` derives from the files."""

    parts: dict[str, list[str]]
    label_names: list[str]
    vocab_size: int
    vocab_sha256: str
    schema: tabular.FeatureSchema
    schema_sha256: str
    docs: dict[str, list[np.ndarray]]
    targets: dict[str, np.ndarray]
    rows: dict[str, np.ndarray]  # featurized train and val rows
    test_records: list[tabular.StructuredRecordSet]


def setup(workload: Workload, paths: dict[str, str], seed: int, tracer) -> Inputs:
    """Files on disk -> model-ready inputs (the ``setup_s`` stage)."""
    notes = dataset.load_notes(paths["notes"])
    labels = dataset.load_labels(paths["labels"])
    record_sets = tabular.load_record_sets(
        paths["timeseries"], paths["events"], paths["singletons"]
    )
    parts = dataset.split_ids(list(notes), workload.split, seed)
    voc = vocab.build_vocabulary(notes[a] for a in parts["train"])
    docs = {k: [voc.encode(notes[a], MAX_DOC_TOKENS) for a in ids] for k, ids in parts.items()}

    by_id = {rs.admission_id: rs for rs in record_sets}
    records = {
        k: [by_id.get(a) or tabular.StructuredRecordSet(admission_id=a) for a in ids]
        for k, ids in parts.items()
    }
    train_table, schema = tabular.build_feature_table(records["train"])
    val_table = tabular.apply_schema(records["val"], schema)
    tracer.add("rows_featurized", len(parts["train"]) + len(parts["val"]))

    label_names = dataset.label_space(labels, parts["train"])
    targets = {k: dataset.label_matrix(ids, labels, label_names) for k, ids in parts.items()}
    return Inputs(
        parts=parts,
        label_names=label_names,
        vocab_size=len(voc),
        vocab_sha256=voc.sha256(),
        schema=schema,
        schema_sha256=tabular.schema_sha256(schema),
        docs=docs,
        targets=targets,
        rows={"train": train_table.values, "val": val_table.values},
        test_records=records["test"],
    )


def route(ensemble: trees.TreeEnsemble, rows: np.ndarray) -> np.ndarray:
    """Leaf assignment for every row; checks each leaf is valid in its tree."""
    assigned = np.stack([trees.assign_leaves(ensemble, r) for r in rows])
    counts = np.array([t.leaf_count for t in ensemble.trees])
    if assigned.shape != (len(rows), len(counts)) or not (
        np.all(assigned >= 0) and np.all(assigned < counts)
    ):
        raise CheckFailed("a row routed to an invalid leaf")
    return assigned


def check_probs(probs: np.ndarray, n_docs: int, n_labels: int) -> None:
    if probs.shape != (n_docs, n_labels):
        raise CheckFailed(f"probabilities have shape {probs.shape}, "
                          f"expected {(n_docs, n_labels)}")
    if not np.all(np.isfinite(probs)) or probs.min() < 0.0 or probs.max() > 1.0:
        raise CheckFailed("probabilities not finite or outside [0, 1]")


@dataclass
class Rep:
    """Timings, digests and counts of one pass through the pipeline.

    ``timed`` maps each timed stage (setup, fit, train, score) to one
    (wall seconds, reference seconds) pair per time it ran.
    """

    timed: dict[str, list[tuple[float, float]]]
    train_tokens: int
    n_test: int
    ops_done: int
    digests: dict[str, str]
    quality: dict[str, float]
    tree_counts: dict[str, float]
    wall_s: float


def run_rep(workload: Workload, paths: dict[str, str], seed: int, tracer, clock,
            ops: Ops) -> Rep:
    """Set up, fit, score and evaluate once, timing each stage on ``clock``."""
    rep_start = time.perf_counter()
    timed = {"setup": [], "fit": [], "train": [], "score": []}
    with tracer.span("bench.rep"):
        setup_digests = set()
        for _ in range(SETUP_REPEATS):
            mark = clock.probe()
            with tracer.span("bench.setup"):
                inp = setup(workload, paths, seed, tracer)
            timed["setup"].append(clock.since(mark))
            setup_digests.add((inp.vocab_sha256, inp.schema_sha256))
        n_train = len(inp.parts["train"])
        n_test = len(inp.parts["test"])
        n_labels = len(inp.label_names)

        ops.begin(n_train * workload.epochs)
        if len(setup_digests) != 1:
            raise CheckFailed("vocabulary or schema differs between set-ups")
        fit_mark = clock.probe()
        with tracer.span("bench.fit"):
            ensemble = trees.train_ensemble(inp.rows["train"], inp.targets["train"])
            train_assign = route(ensemble, inp.rows["train"])
            val_assign = route(ensemble, inp.rows["val"])
            dims = model.ModelDims(
                vocab_size=inp.vocab_size,
                n_labels=n_labels,
                leaf_counts=tuple(t.leaf_count for t in ensemble.trees),
            )
            params = model.init_params(dims, np.random.default_rng(seed))
            settings = model.TrainSettings(
                epochs=workload.epochs, seed=seed, fusion_mode=FUSION_MODE,
                learning_rate=workload.learning_rate,
            )
            train_mark = clock.probe()
            model.train_model(
                params,
                inp.docs["train"], train_assign, inp.targets["train"],
                inp.docs["val"], val_assign, inp.targets["val"],
                settings,
            )
            timed["train"].append(clock.since(train_mark))
        timed["fit"].append(clock.since(fit_mark))
        ops.end()

        probs_digests = set()
        with tracer.span("bench.score"):
            while sum(wall for wall, _ in timed["score"]) < MIN_SCORE_SECONDS:
                ops.begin(n_test)
                mark = clock.probe()
                table = tabular.apply_schema(inp.test_records, inp.schema)
                tracer.add("rows_featurized", n_test)
                assign = route(ensemble, table.values)
                probs = model.predict_matrix(params, inp.docs["test"], assign, FUSION_MODE)
                timed["score"].append(clock.since(mark))
                check_probs(probs, n_test, n_labels)
                probs_digests.add(array_sha256(probs))
                if len(probs_digests) != 1:
                    raise CheckFailed("test probabilities differ between passes")
                ops.end()

        with tracer.span("bench.quality"):
            report = metrics.compute_all(metrics.PredictionBatch(probs, inp.targets["test"]))
    n_scored = n_test * len(timed["score"])
    if workload.f1_floor is not None and not report["micro_f1"] > workload.f1_floor:
        raise CheckFailed(
            f"test micro-F1 {report['micro_f1']:.4f} not above floor "
            f"{workload.f1_floor}", docs=n_scored
        )

    return Rep(
        timed=timed,
        train_tokens=sum(len(d) for d in inp.docs["train"]) * workload.epochs,
        n_test=n_test,
        ops_done=n_train * workload.epochs + n_scored,
        digests={
            "vocab_sha256": inp.vocab_sha256,
            "schema_sha256": inp.schema_sha256,
            "ensemble_sha256": trees.ensemble_sha256(ensemble),
            "test_probs_sha256": probs_digests.pop(),
        },
        quality={"test_micro_f1": report["micro_f1"], "test_macro_auc": report["macro_auc"]},
        tree_counts={
            "trees.grown_share": sum(t.leaf_count > 1 for t in ensemble.trees) / len(ensemble.trees),
            "trees.leaves": float(trees.total_leaves(ensemble)),
            "trees.nodes": float(sum(len(t.nodes) for t in ensemble.trees)),
        },
        wall_s=time.perf_counter() - rep_start,
    )
