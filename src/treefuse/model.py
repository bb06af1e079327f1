"""The full network and its training loop.

Pipeline per document: token embeddings feed a bidirectional LSTM giving
one d_h-vector per token, its two directions stepped together as one tape
op (``autodiff.lstm_sequence``); each token vector is projected to a query
that attends over per-tree key vectors, pulling in a mixture of the
activated leaf embeddings; the concatenated text+leaf vector is projected
back to d_m = d_h; per-label attention over token positions then yields
one vector per label, scored by a per-label linear layer and sigmoid. The
loss is the summed binary cross-entropy over labels.

The fusion step has four modes: `attention` as above; `average` and
`maxpool` replace the attention mixture with a uniform average or a
columnwise max of the leaf matrix; `text_only` bypasses the structured
branch entirely, passing the LSTM output straight to label attention.

Everything runs in float64. Training runs on the reverse-mode tape with a
batch size of one document, which keeps runs deterministic under a fixed
seed. Scoring a split (``predict_matrix``) is forward only and records
nothing on a tape: it runs the LSTM over batches of documents and the head
over groups of their stacked token rows, with the fuse projection, query
projection and leaf embeddings folded into per-pass constants.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass
from typing import Literal

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tape, Tensor, backward
from .dataset import _UNDECODABLE, as_number, check, check_binary, from_fields
from .metrics import PredictionBatch, compute_all, micro_f1

FUSION_MODES = ("attention", "average", "maxpool", "text_only")
LEAF_MODES = ("attention", "average", "maxpool")

CHECKPOINT_FORMAT_VERSION = 2

# Validation precision is reported at k = min(PRECISION_K, n_labels).
PRECISION_K = 5


@dataclass
class ModelDims:
    vocab_size: int
    n_labels: int
    leaf_counts: tuple[int, ...] = ()
    d_e: int = 100
    d_lstm: int = 128
    d_t: int = 128
    d_l: int = 30

    def __post_init__(self):
        for name in ("vocab_size", "n_labels", "d_e", "d_lstm", "d_t", "d_l"):
            setattr(self, name, as_number(getattr(self, name), name, 1))
        if not isinstance(self.leaf_counts, (list, tuple)):
            raise ValueError(f"'leaf_counts' must be a list or tuple, got {self.leaf_counts!r}")
        self.leaf_counts = tuple(as_number(c, "leaf_counts", 0) for c in self.leaf_counts)
        if 0 in self.leaf_counts:
            raise ValueError("every tree needs at least one leaf")

    @property
    def d_h(self) -> int:
        return 2 * self.d_lstm

    @property
    def n_trees(self) -> int:
        return len(self.leaf_counts)


def param_shapes(dims: ModelDims) -> dict[str, tuple[int, ...]]:
    """Every learnable array by name and shape, in initialisation order.

    ``leaf_table`` stacks the trees' leaf embeddings: tree t owns rows
    ``offset[t] .. offset[t] + leaf_counts[t] - 1``, where ``offset`` is the
    prefix sum of ``leaf_counts``. A checkpoint (format version 2) stores
    one array per name here.
    """
    d, d_h = dims.d_lstm, dims.d_h
    return {
        "word_emb": (dims.vocab_size, dims.d_e),
        "lstm_fwd_wx": (4 * d, dims.d_e),
        "lstm_fwd_wh": (4 * d, d),
        "lstm_fwd_b": (4 * d,),
        "lstm_bwd_wx": (4 * d, dims.d_e),
        "lstm_bwd_wh": (4 * d, d),
        "lstm_bwd_b": (4 * d,),
        "query_proj": (dims.d_t, d_h),
        "tree_keys": (dims.d_t, dims.n_trees),
        "leaf_table": (sum(dims.leaf_counts), dims.d_l),
        "fuse_proj": (d_h, d_h + dims.d_l),
        "label_attn": (d_h, dims.n_labels),
        "out_weight": (dims.n_labels, d_h),
        "out_bias": (dims.n_labels,),
    }


class ModelParams:
    """All learnable arrays, one attribute per ``param_shapes`` name.

    The leaf embeddings of every tree live in the single ``leaf_table``
    (rows laid out as ``param_shapes`` describes; checkpoint format v2).
    The multimodal width d_m equals d_h, so the text-only mode can reuse
    every downstream shape.
    """

    def __init__(self, dims: ModelDims, tensors: dict[str, Tensor]):
        self.dims = dims
        self.tensors = tensors

    def __getattr__(self, name: str) -> Tensor:
        try:
            return self.__dict__["tensors"][name]
        except KeyError:
            raise AttributeError(name) from None

    def named(self) -> list[tuple[str, Tensor]]:
        return list(self.tensors.items())

    def all(self) -> list[Tensor]:
        return list(self.tensors.values())

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named()}

    def restore(self, state: dict[str, np.ndarray]) -> None:
        for name, t in self.named():
            t.data[...] = state[name]


def _glorot(rng, rows: int, cols: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_params(dims: ModelDims, rng) -> ModelParams:
    """Fresh parameters: uniform(-0.1, 0.1) embeddings and tree keys,
    Glorot-bounded weight matrices, zero biases with the LSTM forget gate
    nudged to +1."""
    d = dims.d_lstm
    tensors = {}
    for name, shape in param_shapes(dims).items():
        if name in ("word_emb", "tree_keys", "leaf_table"):
            data = rng.uniform(-0.1, 0.1, size=shape)
        elif len(shape) == 1:
            data = np.zeros(shape)
            if name.startswith("lstm_"):
                data[d : 2 * d] = 1.0  # forget gate: remember by default
        else:
            data = _glorot(rng, *shape)
        tensors[name] = Tensor(data)
    return ModelParams(dims, tensors)


def encode_text(token_ids: np.ndarray, params: ModelParams) -> Tensor:
    """Token ids -> N x d_h bidirectional LSTM states, the forward
    direction's d_lstm columns then the reverse direction's, as two tape
    nodes: the embedding gather and one ``lstm_sequence`` over both
    directions."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if token_ids.size == 0:
        raise ValueError("cannot encode an empty document")
    emb = ad.gather(params.word_emb, token_ids)
    return ad.lstm_sequence(
        emb,
        (params.lstm_fwd_wx, params.lstm_fwd_wh, params.lstm_fwd_b),
        (params.lstm_bwd_wx, params.lstm_bwd_wh, params.lstm_bwd_b),
    )


def _leaf_rows(assignment, leaf_counts) -> np.ndarray:
    """Rows of ``leaf_table`` that a leaf assignment activates, one per
    tree. Each leaf id must be in range for its own tree."""
    assignment = np.asarray(assignment, dtype=np.int64)
    counts = np.asarray(leaf_counts, dtype=np.int64)
    if assignment.shape != counts.shape:
        raise ValueError(
            f"assignment length {assignment.shape} does not match "
            f"{len(counts)} trees"
        )
    bad = np.flatnonzero((assignment < 0) | (assignment >= counts))
    if bad.size:
        t = int(bad[0])
        raise IndexError(
            f"leaf {int(assignment[t])} out of range [0, {int(counts[t])}) "
            f"for tree {t}"
        )
    return np.cumsum(counts) - counts + assignment


def assemble_leaf_matrix(assignment: np.ndarray, params: ModelParams) -> Tensor:
    """Activated-leaf embeddings as a d_l x n_trees matrix, one column per
    tree. Each leaf id must be in range for its own tree."""
    rows = _leaf_rows(assignment, params.dims.leaf_counts)
    return ad.transpose2d(ad.gather(params.leaf_table, rows))


def fuse(H: Tensor, leaf_matrix: Tensor | None, params: ModelParams,
         mode: str, return_weights: bool = False):
    """Blend each token vector with leaf content; N x d_m output.

    attention: per-token softmax over trees of (query . tree key) weights
    the leaf columns. average: uniform weights, identical for every token.
    maxpool: columnwise max of the leaf matrix for every token. text_only:
    the LSTM states pass through untouched.

    With return_weights the per-token tree weights come back alongside M
    (None for the modes that have no weights).
    """
    if mode not in FUSION_MODES:
        raise ValueError(f"unknown fusion mode {mode!r}")
    if mode == "text_only":
        return (H, None) if return_weights else H
    if leaf_matrix is None or not leaf_matrix.data.shape[1]:
        raise ValueError(f"fusion mode {mode!r} needs a leaf matrix of at least one tree")
    n_tokens = H.data.shape[0]
    n_trees = leaf_matrix.data.shape[1]

    alpha = None
    if mode == "attention":
        queries = ad.matmul(H, params.query_proj, tb=True)
        # The consistent product keeps duplicate tree keys bitwise equal in
        # the score matrix, so uniform attention is exactly uniform.
        scores = ad.matmul_consistent(queries, params.tree_keys)
        alpha = ad.softmax(scores, axis=1)
        pulled = ad.matmul(alpha, leaf_matrix, tb=True)
    elif mode == "average":
        alpha = Tensor(np.full((n_tokens, n_trees), 1.0 / n_trees))
        pulled = ad.matmul(alpha, leaf_matrix, tb=True)
    else:
        peak = ad.maxpool_cols(leaf_matrix)
        pulled = ad.repeat_rows(peak, n_tokens)

    joined = ad.concat([H, pulled], axis=1)
    M = ad.matmul(joined, params.fuse_proj, tb=True)
    return (M, alpha) if return_weights else M


def label_attention(M: Tensor, label_attn: Tensor, return_weights: bool = False):
    """Per-label softmax over token positions; n_labels x d_m output."""
    scores = ad.matmul(M, label_attn)
    attn = ad.softmax(scores, axis=0)
    V = ad.matmul(attn, M, ta=True)
    return (V, attn) if return_weights else V


def predict(V: Tensor, params: ModelParams) -> Tensor:
    """Per-label probability from each label's own linear layer."""
    logits = ad.add(
        ad.reduce_sum(ad.mul(V, params.out_weight), axis=1), params.out_bias
    )
    return ad.sigmoid(logits)


def forward(params: ModelParams, token_ids: np.ndarray,
            assignment: np.ndarray | None, mode: str) -> Tensor:
    """Document -> per-label probability vector."""
    H = encode_text(token_ids, params)
    leaf_matrix = None
    if mode in LEAF_MODES:
        if assignment is None:
            raise ValueError(f"fusion mode {mode!r} needs a leaf assignment")
        leaf_matrix = assemble_leaf_matrix(assignment, params)
    M = fuse(H, leaf_matrix, params, mode)
    return predict(label_attention(M, params.label_attn), params)


def document_loss(params: ModelParams, token_ids, assignment, target,
                  mode: str) -> tuple[Tensor, Tensor]:
    """(summed binary cross-entropy, per-label probabilities) of one document."""
    yhat = forward(params, token_ids, assignment, mode)
    loss = ad.binary_cross_entropy(yhat, target)
    return loss, yhat


# Padded token-steps (longest length x documents) per scoring batch. The
# batch's output buffer is this many rows of d_h floats (16 MiB at the
# default dims), and the input projection of one direction at most this many
# (one per distinct token) of 4 d_lstm floats. An LSTM step works in
# buffers made once per scan, so a wider batch mainly gives each recurrent
# GEMM more rows: long_text's 150-250-token documents score 32-54 to a
# batch. The cost is memory: the benchmark's long_text peak_rss_mb reads
# 70.7-71.1 MiB here against 69.0-69.4 MiB at a budget of 2048, which
# scores 154-163 docs/s against 203-213 here (3 runs each, seeds 1 and 7,
# --seconds 10).
_SCORE_BATCH_STEPS = 8192
# Padded token rows per head group. A group's buffers hold, per row, its
# LSTM states (d_h floats), their product with the head's constants
# (distinct tree keys + 2 n_labels), tree weights and leaf terms; heads over
# whole batches read long_text's peak_rss_mb at 140.8-144.7 MiB, twice the
# 70.7-71.1 MiB at 256 (same runs as above).
_HEAD_ROWS = 256


def _runs(lengths: np.ndarray, budget: int):
    """(start, stop) of consecutive runs over non-increasing ``lengths``,
    each at most ``budget`` padded rows (its first length x its size); a
    longer item is a run of its own."""
    start = 0
    while start < len(lengths):
        stop = start + max(1, budget // int(lengths[start]))
        yield start, stop
        start = stop


def _split_leaf_rows(dims: ModelDims, mode: str, docs, assignments) -> np.ndarray | None:
    """Every document's ``leaf_table`` rows, tested as one split: documents
    1-D and non-empty, one range test over all token ids and, where ``mode``
    fuses leaves, one over the documents x trees stacked assignments. None
    for an empty split, a failed test or assignments that do not stack
    (None, ragged or past int64)."""
    if not docs or any(ids.ndim != 1 or ids.size == 0 for ids in docs):
        return None
    tokens = np.concatenate(docs)
    if tokens.min() < 0 or tokens.max() >= dims.vocab_size:
        return None
    if mode not in LEAF_MODES:
        return np.empty((len(docs), dims.n_trees), dtype=np.int64)
    counts = np.asarray(dims.leaf_counts, dtype=np.int64)
    try:
        leaves = np.array(assignments, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if leaves.shape != (len(docs), counts.size) or ((leaves < 0) | (leaves >= counts)).any():
        return None
    return leaves + (np.cumsum(counts) - counts)


def _checked_split(params: ModelParams, mode: str, docs, assignments,
                   targets=None, split: str | None = None):
    """A split's int64 token arrays and, where ``mode`` fuses leaves, the
    ``leaf_table`` rows of each document, after checking the whole split,
    its 0/1 targets when given. Errors name the split, when given, and the
    first faulty document: a split that fails the whole-split test is
    checked again one document at a time."""
    if mode in LEAF_MODES and not params.dims.n_trees:
        raise ValueError(f"fusion mode {mode!r} needs at least one tree")
    at = "" if split is None else f"{split} split, "
    if assignments is None:
        assignments = [None] * len(docs)
    sizes = {"documents": docs, "assignments": assignments, "target rows": targets}
    counts = {name: len(part) for name, part in sizes.items() if part is not None}
    if len(set(counts.values())) > 1:
        raise ValueError(at + ", ".join(f"{n} {name}" for name, n in counts.items()))
    if targets is not None:
        if np.shape(targets)[1:] != (params.dims.n_labels,):
            raise ValueError(f"{at}target rows need {params.dims.n_labels} labels, "
                             f"got shape {np.shape(targets)}")
        check_binary(targets, f"{at}document")
    docs = [np.asarray(ids, dtype=np.int64) for ids in docs]
    leaf_rows = _split_leaf_rows(params.dims, mode, docs, assignments)
    if leaf_rows is not None:
        return docs, leaf_rows
    leaf_rows = np.empty((len(docs), params.dims.n_trees), dtype=np.int64)
    for i, ids in enumerate(docs):
        try:
            if ids.ndim != 1:
                raise ValueError(f"token ids must be 1-D, got shape {ids.shape}")
            if ids.size == 0:
                raise ValueError("cannot encode an empty document")
            if ids.min() < 0 or ids.max() >= params.dims.vocab_size:
                raise IndexError(f"token id out of range [0, {params.dims.vocab_size})")
            if mode in LEAF_MODES:
                if assignments[i] is None:
                    raise ValueError(f"fusion mode {mode!r} needs a leaf assignment")
                leaf_rows[i] = _leaf_rows(assignments[i], params.dims.leaf_counts)
        except (IndexError, ValueError) as exc:
            raise type(exc)(f"{at}document {i}: {exc}") from None
    return docs, leaf_rows


def _distinct_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(a, axis=1, return_inverse=True)`` for a 2-D array: its
    distinct columns in lexicographic order (row 0 first) and the index of
    each column among them. One ``np.lexsort`` over the rows and one
    compare of neighbouring sorted columns, where numpy sorts the columns as
    structured elements of one field per row."""
    order = np.lexsort(a[::-1])
    ranked = a[:, order]
    first = np.ones(a.shape[1], dtype=bool)
    first[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    inverse = np.empty(a.shape[1], dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[:, first], inverse


def predict_matrix(params: ModelParams, docs, assignments, mode: str) -> np.ndarray:
    """Probabilities for a whole split; rows follow docs order.

    Forward-only and batched: the documents are sorted longest first and
    cut into batches of at most ``_SCORE_BATCH_STEPS`` padded token-steps
    (a longer document is a batch of its own). A batch's distinct tokens
    are found once; each LSTM direction projects their embeddings in one
    GEMM and runs over the batch as one ``ad.lstm_scan``: one recurrent GEMM
    per step over the documents still running, and an elementwise step in
    buffers made once per scan. The reverse direction reads each document's
    tokens reversed. The batch cut decides how many rows each GEMM sees, so
    it moves the probabilities by rounding only.

    The head runs on plain arrays over groups of whole documents of at most
    ``_HEAD_ROWS`` padded rows. It needs the fused rows M only as
    ``M @ [label_attn | out_weight.T]``, so each pass folds the fuse
    projection, the leaf embeddings and the query projection into
    constants: a stacked token row takes one GEMM, its leaf term one
    batched product per document, and label attention and the output layer
    are segment reductions. Agrees with per-document ``forward`` to rtol
    1e-12.
    """
    if mode not in FUSION_MODES:
        raise ValueError(f"unknown fusion mode {mode!r}")
    docs, leaf_rows = _checked_split(params, mode, docs, assignments)
    n_trees = params.dims.n_trees

    d, d_h, n_labels = params.dims.d_lstm, params.dims.d_h, params.dims.n_labels
    G = np.hstack((params.label_attn.data, params.out_weight.data.T))
    if mode in LEAF_MODES:
        G = params.fuse_proj.data.T @ G
    row_weights = G[:d_h]
    if mode in ("attention", "average"):
        # duplicate key columns share one product column, so their scores
        # are bitwise equal and uniform attention is exactly uniform;
        # average runs the same product, so the two then agree bitwise
        keys, key_of_tree = _distinct_columns(params.tree_keys.data)
        row_weights = np.hstack((params.query_proj.data.T @ keys, row_weights))
        leaf_out = params.leaf_table.data @ G[d_h:]

    lengths = np.array([ids.size for ids in docs], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    batches = [order[a:b] for a, b in _runs(lengths[order], _SCORE_BATCH_STEPS)]
    buf = np.empty(max((int(lengths[b[0]]) * len(b) for b in batches), default=0) * 2 * d)

    table = params.word_emb.data
    probs = np.empty((len(docs), n_labels))
    for batch in batches:
        lens = lengths[batch]
        steps = int(lens[0])
        fwd_ids = np.zeros((steps, len(batch)), dtype=np.int64)
        for j, i in enumerate(batch):
            fwd_ids[: lens[j], j] = docs[i]
        # both directions project only the batch's distinct tokens
        tokens, fwd_ids = np.unique(fwd_ids, return_inverse=True)
        fwd_ids = fwd_ids.reshape(steps, len(batch))
        bwd_ids = np.zeros_like(fwd_ids)
        for j, n in enumerate(lens):
            bwd_ids[:n, j] = fwd_ids[n - 1 :: -1, j]
        rows = table[tokens]
        out = buf[: steps * len(batch) * 2 * d].reshape(steps, len(batch), 2 * d)
        ad.lstm_scan(rows, fwd_ids, lens, params.lstm_fwd_wx.data,
                     params.lstm_fwd_wh.data, params.lstm_fwd_b.data, out[:, :, :d])
        ad.lstm_scan(rows, bwd_ids, lens, params.lstm_bwd_wx.data,
                     params.lstm_bwd_wh.data, params.lstm_bwd_b.data, out[:, :, d:])
        for a, b in _runs(lens, _HEAD_ROWS):
            ids, n = batch[a:b], lens[a:b]
            # each stacked row's document in the group and token position
            doc = np.repeat(np.arange(len(ids)), n)
            starts = np.cumsum(n) - n
            pos = np.arange(doc.size) - starts[doc]
            H = np.concatenate((out[pos, a + doc, :d], out[n[doc] - 1 - pos, a + doc, d:]), axis=1)
            Z = H @ row_weights
            if mode == "maxpool":
                Z += (params.leaf_table.data[leaf_rows[ids]].max(axis=1) @ G[d_h:])[doc]
            elif mode != "text_only":
                if mode == "attention":
                    scores = Z[:, key_of_tree]
                    e = np.exp(scores - scores.max(axis=1, keepdims=True))
                    alpha = e / e.sum(axis=1, keepdims=True)
                else:
                    alpha = 1.0 / n_trees
                weights = np.zeros((len(ids), n[0], n_trees))
                weights[doc, pos] = alpha
                pulled = np.matmul(weights, leaf_out[leaf_rows[ids]])
                Z = Z[:, -2 * n_labels:] + pulled[doc, pos]
            # label attention: softmax over each document's rows, then
            # logit_l = sum_r a_rl (w_l . M_r) + b_l
            S, O = Z[:, :n_labels], Z[:, n_labels:]
            e = np.exp(S - np.maximum.reduceat(S, starts)[doc])
            logits = np.add.reduceat(e * O, starts) / np.add.reduceat(e, starts)
            probs[ids] = ad._sigmoid_arr(logits + params.out_bias.data)
    return probs


@dataclass
class TrainSettings:
    epochs: int
    seed: int
    fusion_mode: str = "attention"
    learning_rate: float = 1e-3
    clip_norm: float = 5.0

    def __post_init__(self):
        for name, low, kind in (("epochs", 1, int), ("seed", 0, int),
                                ("learning_rate", 0.0, float), ("clip_norm", 0.0, float)):
            setattr(self, name, as_number(getattr(self, name), name, low, kind))
        if self.fusion_mode not in FUSION_MODES:
            raise ValueError(f"fusion_mode must be one of {FUSION_MODES}, "
                             f"got {self.fusion_mode!r}")


# One row per epoch. ``train_micro_f1`` scores the probabilities each
# training document got in its own step, before that step's update.
LOG_COLUMNS = (
    "epoch", "train_loss", "train_grad_norm", "val_macro_auc", "val_micro_auc",
    "val_macro_f1", "val_micro_f1", "val_precision_at_k", "train_micro_f1",
)


@dataclass
class TrainResult:
    log_rows: list[dict]
    best_epoch: int

    @property
    def best_val_micro_f1(self) -> float:
        return self.log_rows[self.best_epoch]["val_micro_f1"]

    def log_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(LOG_COLUMNS) + "\n")
        for row in self.log_rows:
            buf.write(",".join(repr(row[c]) for c in LOG_COLUMNS) + "\n")
        return buf.getvalue()


def train_model(
    params: ModelParams,
    train_docs, train_assignments, train_targets,
    val_docs, val_assignments, val_targets,
    settings: TrainSettings,
) -> TrainResult:
    """Seeded per-document Adam training with best-validation checkpointing.

    Every training document runs forward once per epoch, in its own step:
    the logged ``train_micro_f1`` scores those in-step probabilities, each
    taken before its document's update. After the final epoch the
    parameters are restored to the epoch with the highest validation
    micro-F1 (earliest such epoch on ties).

    Both splits are checked whole before any parameter changes. The
    optimizer's state is made before the first step, with one gradient
    buffer per parameter that every step zero-fills and reuses; Adam and
    clipping work in place through its scratch pair. ``backward`` consumes
    each step's tape, so nothing of a step outlives its update but its loss
    and probabilities. The parameters let go of the buffers when training
    returns.
    """
    n = len(train_docs)
    if n == 0:
        raise ValueError("no training documents")
    if len(val_docs) == 0:
        raise ValueError("empty validation split: best-epoch selection "
                         "needs at least one validation document")
    mode = settings.fusion_mode
    _checked_split(params, mode, train_docs, train_assignments, train_targets, "train")
    _checked_split(params, mode, val_docs, val_assignments, val_targets, "validation")
    train_targets = np.asarray(train_targets, dtype=np.float64)
    val_targets = np.asarray(val_targets, dtype=np.float64)
    k = min(PRECISION_K, train_targets.shape[1])

    shuffle_rng = np.random.default_rng(np.random.SeedSequence([settings.seed, 1]))
    tensors = params.all()
    adam = AdamState(tensors, settings.learning_rate)

    log_rows: list[dict] = []
    # micro-F1 is >= 0, so epoch 0 always sets best_state
    best_epoch = -1
    best_val = -1.0

    for epoch in range(settings.epochs):
        order = shuffle_rng.permutation(n)
        train_probs = np.empty_like(train_targets)
        loss_total = 0.0
        grad_norm_total = 0.0
        for i in order:
            assignment = None if train_assignments is None else train_assignments[i]
            ad.zero_grads(adam)
            with Tape() as tape:
                loss, yhat = document_loss(
                    params, train_docs[i], assignment, train_targets[i], mode
                )
            train_probs[i] = yhat.data
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise RuntimeError(
                    f"non-finite loss {loss_value} at epoch {epoch}, "
                    f"document index {int(i)}"
                )
            backward(tape, loss)
            grad_norm_total += ad.clip_gradients(adam, settings.clip_norm)
            ad.adam_step(adam)
            loss_total += loss_value

        train_f1 = micro_f1(PredictionBatch(train_probs, train_targets))
        val_probs = predict_matrix(params, val_docs, val_assignments, mode)
        val_metrics = compute_all(PredictionBatch(val_probs, val_targets), k=k)
        row = {
            "epoch": epoch,
            "train_loss": loss_total / n,
            "train_grad_norm": grad_norm_total / n,
            "val_macro_auc": val_metrics["macro_auc"],
            "val_micro_auc": val_metrics["micro_auc"],
            "val_macro_f1": val_metrics["macro_f1"],
            "val_micro_f1": val_metrics["micro_f1"],
            "val_precision_at_k": val_metrics[f"precision_at_{k}"],
            "train_micro_f1": train_f1,
        }
        log_rows.append(row)

        if row["val_micro_f1"] > best_val:
            best_val = row["val_micro_f1"]
            best_epoch = epoch
            best_state = params.snapshot()

    for t in tensors:
        t.grad = None
    params.restore(best_state)
    return TrainResult(log_rows=log_rows, best_epoch=best_epoch)


def save_checkpoint(path, params: ModelParams, meta: dict) -> None:
    """Named-array archive with a JSON metadata blob; exact round-trip."""
    payload = dict(meta)
    payload["format_version"] = CHECKPOINT_FORMAT_VERSION
    payload["dims"] = asdict(params.dims)
    arrays = {name: t.data for name, t in params.named()}
    np.savez(path, meta_json=np.array(json.dumps(payload, sort_keys=True)), **arrays)


_META_SPEC = {"format_version": Literal[CHECKPOINT_FORMAT_VERSION], "dims": dict}


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Parameters and metadata from ``save_checkpoint``'s archive; every
    complaint names the file."""
    with np.load(path, allow_pickle=False) as archive:
        if "meta_json" not in archive.files:
            raise ValueError(f"{path}: no 'meta_json' entry")
        try:
            meta = json.loads(str(archive["meta_json"]))
        except _UNDECODABLE as exc:
            raise ValueError(f"{path}: entry 'meta_json' is not JSON: {exc}") from None
        check(meta, _META_SPEC, f"{path} meta_json")
        dims = from_fields(ModelDims, meta["dims"], f"{path} dims")
        tensors = {}
        for name, shape in param_shapes(dims).items():
            array = archive[name] if name in archive.files else None
            if array is None or array.shape != shape:
                found = "missing" if array is None else f"shape {array.shape}"
                raise ValueError(
                    f"{path}: array {name!r} is {found}, expected shape {shape}"
                )
            if array.dtype != np.float64:
                raise ValueError(
                    f"{path}: array {name!r} has dtype {array.dtype}, expected float64"
                )
            if not np.isfinite(array).all():
                raise ValueError(f"{path}: array {name!r} has a non-finite value")
            tensors[name] = Tensor(array.copy())
    return ModelParams(dims, tensors), meta
