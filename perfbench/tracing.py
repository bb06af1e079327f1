"""Per-layer tracing of treefuse, wrapped from outside the package.

``instrument`` replaces public functions on their modules with wrappers
that record a span (name, start, end, parent) and restores them on exit.
The package calls its own functions through module attributes (``ad.gather``,
``trees.train_tree``, ``model.document_loss``), so the wrappers see every
call without any change under ``src/``. Each backward closure passed to
``Tape.record`` is wrapped too, named after the op whose forward span is
open when it is recorded. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from statistics import median

from treefuse import autodiff, dataset, metrics, model, tabular, trees, vocab

# Ops on the attention-fusion path; each gets a per-document forward and
# backward metric.
REPORTED_OPS = (
    "lstm_sequence", "gather", "concat", "transpose2d", "matmul",
    "matmul_consistent", "softmax", "sigmoid", "mul", "add", "reduce_sum",
    "binary_cross_entropy",
)
OTHER_OPS = ("tanh", "slice_axis", "mean_cols", "maxpool_cols", "repeat_rows")
OPTIMIZER = ("adam_step", "sgd_step", "clip_gradients", "zero_grads")
MODEL_FUNCS = (
    "init_params", "train_model", "document_loss", "forward", "encode_text",
    "assemble_leaf_matrix", "fuse", "label_attention", "predict", "predict_matrix",
)

# (owner, attribute, span name). ``model`` imports backward, compute_all and
# micro_f1 by name, so those are wrapped on ``model`` itself.
TARGETS = (
    [(dataset, f, f"dataset.{f}") for f in
     ("load_notes", "load_labels", "split_ids", "label_space", "label_matrix")]
    + [(vocab, "build_vocabulary", "vocab.build_vocabulary"),
       (vocab.Vocabulary, "encode", "vocab.encode")]
    + [(tabular, f, f"tabular.{f}") for f in
       ("load_record_sets", "build_feature_table", "build_schema", "apply_schema")]
    + [(trees, f, f"trees.{f}") for f in ("train_ensemble", "train_tree", "assign_leaves")]
    + [(autodiff, f, f"autodiff.{f}") for f in REPORTED_OPS + OTHER_OPS + OPTIMIZER]
    + [(model, f, f"model.{f}") for f in MODEL_FUNCS]
    + [(model, "backward", "model.backward"),
       (model, "compute_all", "metrics.compute_all"),
       (model, "micro_f1", "metrics.micro_f1"),
       (metrics, "compute_all", "metrics.compute_all")]
)

EVAL_NAMES = ("model.predict_matrix", "metrics.compute_all", "metrics.micro_f1")


class NullTracer:
    """Tracing off: the pipeline's own spans and counts cost nothing."""

    def span(self, name):
        return nullcontext()

    def add(self, name, n):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


@contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the duration of the block."""
    record = autodiff.Tape.record

    def traced_record(tape, out, backward_fn):
        tracer.counts["tape_nodes"] += 1
        op = tracer.current() or "autodiff.unknown"
        record(tape, out, tracer.wrap(op + ".bwd", backward_fn))

    replacements = [(owner, attr, tracer.wrap(name, getattr(owner, attr)))
                    for owner, attr, name in TARGETS]
    replacements.append((autodiff.Tape, "record", traced_record))
    with patched(replacements):
        yield tracer


def _group(name: str) -> str:
    """The layer a span's self time is charged to."""
    module, _, rest = name.partition(".")
    if module == "autodiff":
        op = rest.split(".")[0]
        if op == "lstm_sequence":
            return "lstm"
        return "optimizer" if op in OPTIMIZER else "small_ops"
    if module == "model":
        return "model_glue"
    if module == "trees":
        return "leaf_routing" if rest == "assign_leaves" else "tree_training"
    if module in ("dataset", "vocab", "tabular"):
        return "data"
    if module == "metrics":
        return "metrics"
    return "bench"


SHARE_GROUPS = (
    "lstm", "optimizer", "small_ops", "model_glue", "tree_training",
    "leaf_routing", "data", "metrics", "bench",
)


def per_layer_metrics(tracer: Tracer, tree_counts: dict[str, float],
                      overhead_share: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced rep, as name -> (value, unit)."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: defaultdict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    group_self: defaultdict[str, float] = defaultdict(float)
    tree_ms = []
    eval_s = eval_predict_s = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        d = end - start
        total[name] += d
        calls[name] += 1
        group_self[_group(name)] += d - child[i]
        if name == "trees.train_tree":
            tree_ms.append(d * 1e3)
        if name in EVAL_NAMES and parent >= 0 and spans[parent][0] == "model.train_model":
            eval_s += d
            if name == "model.predict_matrix":
                eval_predict_s += d

    def mean(name: str, scale: float = 1.0) -> float:
        return total[name] / calls[name] * scale if calls[name] else 0.0

    n_setup = calls["bench.setup"]
    n_fwd = calls["model.forward"]
    n_steps = calls["model.backward"]
    root = total["bench.rep"]
    out: dict[str, tuple[float, str]] = {
        "dataset.load_s": ((total["dataset.load_notes"] + total["dataset.load_labels"]) / n_setup, "s"),
        "vocab.build_ms": (total["vocab.build_vocabulary"] / n_setup * 1e3, "ms"),
        "vocab.encode_us_per_doc": (mean("vocab.encode", 1e6), "us"),
        "tabular.load_records_s": (total["tabular.load_record_sets"] / n_setup, "s"),
        "tabular.featurize_us_per_row": (
            total["tabular.apply_schema"] / tracer.counts["rows_featurized"] * 1e6, "us"),
        "trees.train_ensemble_s": (mean("trees.train_ensemble"), "s"),
        "trees.train_tree_ms.p50": (median(tree_ms), "ms"),
        "trees.train_tree_ms.max": (max(tree_ms), "ms"),
        "trees.assign_us_per_row": (mean("trees.assign_leaves", 1e6), "us"),
    }
    out.update({
        name: (value, "share" if name.endswith("_share") else "count")
        for name, value in tree_counts.items()
    })
    for op in REPORTED_OPS:
        out[f"autodiff.{op}.fwd_ms"] = (total[f"autodiff.{op}"] / n_fwd * 1e3, "ms")
        out[f"autodiff.{op}.bwd_ms"] = (total[f"autodiff.{op}.bwd"] / n_steps * 1e3, "ms")
    for f in ("adam_step", "clip_gradients", "zero_grads"):
        out[f"autodiff.{f}_ms"] = (mean(f"autodiff.{f}", 1e3), "ms")
    out["autodiff.tape_nodes_per_doc"] = (tracer.counts["tape_nodes"] / n_steps, "count")
    for f in ("encode_text", "assemble_leaf_matrix", "fuse", "label_attention", "predict"):
        out[f"model.{f}_ms"] = (mean(f"model.{f}", 1e3), "ms")
    out["model.backward_ms"] = (mean("model.backward", 1e3), "ms")
    out["model.predict_matrix_s"] = (eval_predict_s, "s")
    out["model.eval_share"] = (eval_s / total["model.train_model"], "share")
    out["metrics.compute_all_ms"] = (mean("metrics.compute_all", 1e3), "ms")
    for g in SHARE_GROUPS:
        out[f"self_share.{g}"] = (group_self[g] / root, "share")
    out["self_share.per_doc_fixed"] = (
        sum(group_self[g] for g in ("optimizer", "small_ops", "model_glue")) / root, "share")
    out["trace.overhead_share"] = (overhead_share, "share")
    return out
