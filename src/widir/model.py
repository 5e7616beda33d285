"""The wide-and-deep interaction ranker: scoring, loss, exact gradients.

Architecture (seven components; hidden layers ReLU, the wide layer and the
final output layer linear):

    player branch       d_p -> 64 -> 64
    contest branch      d_c -> 64 -> 64
    interaction branch  d_i -> 16 -> 16 -> 16
    wide branch         (d_p+d_c+d_i) -> 1        (raw features)
    deep branch         144 -> 128 -> 128 -> 128 -> 128
    combined layers     128 -> 64 -> 64 -> 32 -> 8 -> 4
    final ranking       5 -> 4 -> 1               (4 deep outputs + wide)

The graph runs over three row spaces (`Rows`): player rows, template
(contest) rows, and pair rows, each joining one player with one template
and carrying their interaction row. The player and contest branches run
once per player and template row. The first deep layer and the wide layer
are linear in each block of their concatenated input, so each block is
multiplied in its own row space and the products are gathered and summed
per pair row; the rest of the graph runs on the pair rows. The backward
pass walks the same spec (`_GRAPH`) in reverse and sums each block's
gradient over the pair rows that gathered it. Scoring (`score_rows`),
training (`pair_gradients`) and the flat adapters `forward_batch` and
`backward_batch`, which map every row to itself, all run this one graph.

Numerics note: the exact path computes each matmul as one stacked BLAS call
over fixed slices of SLICE_ROWS rows, zero-padding only the tail slice, and
width-1 products as row-wise reductions. Every row therefore goes through a
GEMM of the same shape whatever the batch size or its position in the
batch, and a pair row's score depends only on its own player, template and
interaction rows: scoring a batch equals scoring rows one at a time bit for
bit. That is also why scoring chunks of players on several threads at once
(`evaluation.ModelScorer.score_matrix`) gives the same bits at any thread
count. A plain `x @ w` is not row-stable this way: BLAS picks its blocking and
kernels from the batch shape, so a row's rounding follows the batch.
SLICE_ROWS is a constant because the scores' last bits depend on it. The
trainer uses `fast=True` for plain BLAS matmul, which is row-stable only up
to float rounding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DataError, DimensionError, ModelFormatError, ModelVersionError, ParamCountError
from .textio import write_replace

MODEL_MAGIC = b"WDIR"
MODEL_VERSION = 1

COMPONENT_ORDER = (
    "player_branch",
    "contest_branch",
    "interaction_branch",
    "wide",
    "deep",
    "combined",
    "final",
)


@dataclass(frozen=True, slots=True)
class WidirDims:
    d_p: int = 107
    d_c: int = 11
    d_i: int = 9

    def validate(self) -> None:
        if min(self.d_p, self.d_c, self.d_i) < 1:
            raise DimensionError(f"dims must be positive, got {self}")


def _layer_plan(dims: WidirDims) -> dict[str, list[tuple[int, int, bool]]]:
    """Per component: (fan_in, fan_out, relu) for each layer."""
    d_sum = dims.d_p + dims.d_c + dims.d_i
    return {
        "player_branch": [(dims.d_p, 64, True), (64, 64, True)],
        "contest_branch": [(dims.d_c, 64, True), (64, 64, True)],
        "interaction_branch": [(dims.d_i, 16, True), (16, 16, True), (16, 16, True)],
        "wide": [(d_sum, 1, False)],
        "deep": [(144, 128, True), (128, 128, True), (128, 128, True), (128, 128, True)],
        "combined": [(128, 64, True), (64, 64, True), (64, 32, True), (32, 8, True), (8, 4, True)],
        "final": [(5, 4, True), (4, 1, False)],
    }


@dataclass
class Layer:
    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)


@dataclass
class WidirParams:
    """All weights and biases, grouped by component in a fixed order."""

    dims: WidirDims
    components: dict[str, list[Layer]]

    def layers(self) -> Iterator[tuple[str, int, Layer]]:
        for name in COMPONENT_ORDER:
            for i, layer in enumerate(self.components[name]):
                yield name, i, layer

    def arrays(self) -> list[np.ndarray]:
        out = []
        for _, _, layer in self.layers():
            out.append(layer.w)
            out.append(layer.b)
        return out

    def tally(self) -> dict[str, int]:
        return {
            name: sum(l.w.size + l.b.size for l in self.components[name])
            for name in COMPONENT_ORDER
        }

    def zeros_like(self) -> "WidirParams":
        return WidirParams(
            dims=self.dims,
            components={
                name: [Layer(np.zeros_like(l.w), np.zeros_like(l.b)) for l in layers]
                for name, layers in self.components.items()
            },
        )

    def copy(self) -> "WidirParams":
        return WidirParams(
            dims=self.dims,
            components={
                name: [Layer(l.w.copy(), l.b.copy()) for l in layers]
                for name, layers in self.components.items()
            },
        )


def param_count(dims: WidirDims) -> tuple[dict[str, int], int]:
    """Per-component parameter counts and the grand total."""
    dims.validate()
    per = {
        name: sum(fi * fo + fo for fi, fo, _ in plan)
        for name, plan in _layer_plan(dims).items()
    }
    return per, sum(per.values())


def init_params(dims: WidirDims, seed: int, dtype=np.float32) -> WidirParams:
    """He-style scaled uniform weights (limit sqrt(6/fan_in)), zero biases."""
    dims.validate()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    components: dict[str, list[Layer]] = {}
    for name in COMPONENT_ORDER:
        layers = []
        for fan_in, fan_out, _ in _layer_plan(dims)[name]:
            limit = np.sqrt(6.0 / fan_in)
            w = rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)
            b = np.zeros(fan_out, dtype=dtype)
            layers.append(Layer(w, b))
        components[name] = layers
    return WidirParams(dims=dims, components=components)


# --- kernels -------------------------------------------------------------------


# Rows per GEMM on the exact path. Fixed, so that every row's product runs
# through a BLAS call of one shape whatever the batch size; changing it
# changes exact scores in their last bits.
SLICE_ROWS = 8


def _mm_exact(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w as one stacked matmul over fixed slices of SLICE_ROWS rows.

    Each slice is its own (SLICE_ROWS, k) @ (k, m) GEMM, so a row's result
    does not depend on how many rows surround it. Only the tail slice is
    copied, zero-padded to full height. A width-1 product is a row-wise
    reduction, which is batch-size independent too.
    """
    if w.shape[1] == 1:
        return (x * w[:, 0]).sum(axis=1)[:, None]
    n, k = x.shape
    m = w.shape[1]
    out = np.empty((n, m), dtype=np.result_type(x, w))
    head = n - n % SLICE_ROWS
    if head:
        np.matmul(
            x[:head].reshape(-1, SLICE_ROWS, k), w, out=out[:head].reshape(-1, SLICE_ROWS, m)
        )
    if head < n:
        tail = np.zeros((1, SLICE_ROWS, k), dtype=x.dtype)
        tail[0, : n - head] = x[head:]
        out[head:] = np.matmul(tail, w)[0, : n - head]
    return out


def _mm_fast(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return x @ w


# Up to this many segments, a segment sum is one GEMM with a one-hot matrix;
# above it, a bincount. On 8,000 rows of 128 columns (2 vCPU, OpenBLAS at 2
# threads) the GEMM takes 1.3 ms for 72 segments, a batch's template rows,
# against 5.9 ms for the bincount; its cost grows with the segment count, and
# a batch has thousands of lists.
_ONE_HOT_SEGMENTS = 128


def _segment_sum(x: np.ndarray, seg: np.ndarray, n: int) -> np.ndarray:
    """(n, m) sums of the rows of x per segment: out[k] is the sum of x[r] over seg[r] == k."""
    if n <= _ONE_HOT_SEGMENTS:
        one_hot = np.zeros((n, x.shape[0]), dtype=x.dtype)
        one_hot[seg, np.arange(x.shape[0])] = 1
        return one_hot @ x
    m = x.shape[1]
    keys = (seg[:, None] * m + np.arange(m)).ravel()
    return np.bincount(keys, x.ravel(), minlength=n * m).reshape(n, m).astype(x.dtype, copy=False)


# --- the factored graph ------------------------------------------------------


@dataclass(frozen=True)
class Rows:
    """Model inputs in three row spaces: players, templates and pair rows.

    Pair row r joins player row player_of[r] with template row contest_of[r]
    and carries its own interaction row. A map of None maps each pair row to
    the row of the same index.
    """

    player: np.ndarray       # (L, d_p)
    contest: np.ndarray      # (K, d_c)
    interaction: np.ndarray  # (R, d_i)
    player_of: np.ndarray | None = None   # (R,) player row of each pair row
    contest_of: np.ndarray | None = None  # (R,) template row of each pair row


# The graph in evaluation order: each component and its inputs, concatenated
# in this order into its first layer. "player", "contest" and "interaction"
# are the raw feature rows; any other input is a component's output.
_GRAPH = (
    ("player_branch", ("player",)),
    ("contest_branch", ("contest",)),
    ("interaction_branch", ("interaction",)),
    ("wide", ("player", "contest", "interaction")),
    ("deep", ("player_branch", "contest_branch", "interaction_branch")),
    ("combined", ("deep",)),
    ("final", ("combined", "wide")),
)
_INPUTS = dict(_GRAPH)

# The row space of each input or component off the pair rows; every other
# runs on the pair rows, where the player and template rows are gathered.
_SPACE = {"player": "player", "contest": "contest", "player_branch": "player", "contest_branch": "contest"}


def _gather(rows: Rows, name: str, block: str) -> np.ndarray | None:
    """The pair rows' indices into `block`'s rows, if component `name` must gather them."""
    space = _SPACE.get(block, "pair")
    if space == _SPACE.get(name, "pair"):
        return None
    return rows.player_of if space == "player" else rows.contest_of


def _blocks(name: str, values: dict[str, np.ndarray]):
    """(input, its rows of the first layer's weight) per input of `name`, in concatenation order."""
    start = 0
    for i in _INPUTS[name]:
        stop = start + values[i].shape[1]
        yield i, slice(start, stop)
        start = stop


def _forward(params: WidirParams, rows: Rows, mm, acts: dict | None = None) -> np.ndarray:
    """Scores of the pair rows. Each component runs once per row of its space.

    A first layer multiplies each input block in the block's own row space
    and gathers the product to the component's rows; the products, then the
    bias, are summed in input order. Bias and ReLU apply in place. With
    `acts`, acts[name] keeps every layer's output for the backward pass;
    without it, only each component's last output stays alive.
    """
    plan = _layer_plan(params.dims)
    values = {"player": rows.player, "contest": rows.contest, "interaction": rows.interaction}
    for name, _ in _GRAPH:
        layers = params.components[name]
        x = None
        for i, block in _blocks(name, values):
            part = mm(values[i], layers[0].w[block])
            gather = _gather(rows, name, i)
            if gather is not None:
                part = part[gather]
            x = part if x is None else np.add(x, part, out=x)
        outs = []
        for k, (layer, (_, _, relu)) in enumerate(zip(layers, plan[name])):
            if k:
                x = mm(x, layer.w)
            x += layer.b
            if relu:
                np.maximum(x, 0, out=x)
            if acts is not None:  # else each layer's output is freed once the next is made
                outs.append(x)
        values[name] = x
        if acts is not None:
            acts[name] = outs
    return values["final"][:, 0]


def _backward(params: WidirParams, rows: Rows, acts: dict, d_score: np.ndarray) -> WidirParams:
    """Gradients of sum(d_score * scores), by the graph above run in reverse.

    A first layer's block gradient is summed per row of the block's space
    (over the pair rows that gathered it) before it meets the block's rows.
    """
    plan = _layer_plan(params.dims)
    values = {"player": rows.player, "contest": rows.contest, "interaction": rows.interaction}
    values.update((name, outs[-1]) for name, outs in acts.items())
    grads = params.zeros_like()
    upstream = {"final": d_score[:, None].copy()}
    for name, _ in reversed(_GRAPH):
        layers, outs, g = params.components[name], acts[name], grads.components[name]
        dz = upstream.pop(name)
        for k in range(len(layers) - 1, -1, -1):
            if plan[name][k][2]:
                dz *= outs[k] > 0
            g[k].b += dz.sum(axis=0)
            if k:
                g[k].w += outs[k - 1].T @ dz
                dz = dz @ layers[k].w.T
        for i, block in _blocks(name, values):
            gather = _gather(rows, name, i)
            d_block = dz if gather is None else _segment_sum(dz, gather, values[i].shape[0])
            g[0].w[block] += values[i].T @ d_block
            if i in acts:  # a component's output: pass the gradient on
                upstream[i] = d_block @ layers[0].w[block].T
    return grads


def _check_rows(params: WidirParams, rows: Rows) -> None:
    dims = params.dims
    for name, arr, want in (
        ("player_branch", rows.player, dims.d_p),
        ("contest_branch", rows.contest, dims.d_c),
        ("interaction_branch", rows.interaction, dims.d_i),
    ):
        if arr.ndim != 2 or arr.shape[1] != want:
            raise DimensionError(
                f"{name} expects input dim {want}, got shape {tuple(arr.shape)}"
            )
    n = rows.interaction.shape[0]
    for space, arr, index in (("player", rows.player, rows.player_of),
                              ("contest", rows.contest, rows.contest_of)):
        if (arr.shape[:1] if index is None else index.shape) != (n,):
            raise DimensionError(f"{space} rows do not map onto the {n} pair rows")


def score_rows(params: WidirParams, rows: Rows, fast: bool = False) -> np.ndarray:
    """Scores of the pair rows of `rows`.

    The default path runs each matmul over fixed SLICE_ROWS-row slices (see
    `_mm_exact`), so a pair row's score depends only on its own player,
    template and interaction rows, not on the batch. `fast=True` runs plain
    `x @ w`, whose per-row rounding can follow the batch shape.
    """
    _check_rows(params, rows)
    return _forward(params, rows, _mm_fast if fast else _mm_exact)


def forward_batch(
    params: WidirParams,
    player: np.ndarray,
    contest: np.ndarray,
    interaction: np.ndarray,
    fast: bool = False,
) -> np.ndarray:
    """Scores for N feature triples, each row its own player, template and pair row."""
    rows = Rows(*(np.atleast_2d(np.asarray(a)) for a in (player, contest, interaction)))
    return score_rows(params, rows, fast)


# --- loss and gradients --------------------------------------------------------


def hinge_losses(s_pos: np.ndarray, s_neg: np.ndarray) -> np.ndarray:
    """Pairwise hinge per pair: max(0, 1 - (s_pos - s_neg)); depends on the difference only."""
    return np.maximum(0.0, 1.0 - (np.asarray(s_pos) - np.asarray(s_neg)))


def pair_gradients(
    params: WidirParams, rows: Rows, pos: np.ndarray, neg: np.ndarray, fast: bool = False
) -> tuple[WidirParams, np.ndarray]:
    """Summed gradient of the pairwise hinge over pairs of pair rows, and the per-pair losses.

    Pair j prefers pair row pos[j] to pair row neg[j]. Each pair row runs the
    graph once however many pairs share it; a row's score gradient is its
    count of active pairs as the negative side less its count as the
    positive side. Pairs whose margin is satisfied (including exactly met,
    where the kink subgradient is taken as 0) contribute nothing.
    """
    _check_rows(params, rows)
    acts: dict[str, list] = {}
    scores = _forward(params, rows, _mm_fast if fast else _mm_exact, acts)
    losses = hinge_losses(scores[pos], scores[neg])
    active = losses > 0.0
    d_score = np.bincount(neg[active], minlength=scores.size) - np.bincount(pos[active], minlength=scores.size)
    return _backward(params, rows, acts, d_score.astype(scores.dtype)), losses


def backward_batch(
    params: WidirParams,
    pos: tuple[np.ndarray, np.ndarray, np.ndarray],
    neg: tuple[np.ndarray, np.ndarray, np.ndarray],
    fast: bool = False,
) -> tuple[WidirParams, np.ndarray]:
    """`pair_gradients` over N pairs of feature triples, each side its own rows."""
    sides = [[np.atleast_2d(np.asarray(a)) for a in side] for side in (pos, neg)]
    n = sides[0][0].shape[0]
    if any(a.shape[0] != n for side in sides for a in side):
        raise DimensionError("pos/neg player/contest/interaction batches differ in length")
    rows = Rows(*(np.concatenate([a, b]) for a, b in zip(*sides)))
    idx = np.arange(n)
    return pair_gradients(params, rows, idx, idx + n, fast)


# --- serialization ------------------------------------------------------------


def serialize(params: WidirParams) -> bytes:
    """Versioned little-endian binary layout; values stored as float32."""
    out = [MODEL_MAGIC, struct.pack("<HH", MODEL_VERSION, 0)]
    d = params.dims
    out.append(struct.pack("<III", d.d_p, d.d_c, d.d_i))
    for name in COMPONENT_ORDER:
        layers = params.components[name]
        out.append(struct.pack("<B", len(layers)))
        for layer in layers:
            rows, cols = layer.w.shape
            out.append(struct.pack("<II", rows, cols))
            out.append(np.ascontiguousarray(layer.w, dtype="<f4").tobytes())
            out.append(struct.pack("<I", layer.b.size))
            out.append(np.asarray(layer.b, dtype="<f4").tobytes())
    return b"".join(out)


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ModelFormatError("corrupt model stream: truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def deserialize(data: bytes) -> WidirParams:
    cur = _Cursor(data)
    if cur.take(len(MODEL_MAGIC)) != MODEL_MAGIC:
        raise ModelFormatError("corrupt model stream: bad magic")
    version, _ = cur.unpack("<HH")
    if version != MODEL_VERSION:
        raise ModelVersionError(f"unsupported model version {version}, expected {MODEL_VERSION}")
    d_p, d_c, d_i = cur.unpack("<III")
    dims = WidirDims(d_p, d_c, d_i)
    dims.validate()
    components: dict[str, list[Layer]] = {}
    for name in COMPONENT_ORDER:
        (n_layers,) = cur.unpack("<B")
        layers = []
        for _ in range(n_layers):
            rows, cols = cur.unpack("<II")
            w = np.frombuffer(cur.take(rows * cols * 4), dtype="<f4").reshape(rows, cols).copy()
            (blen,) = cur.unpack("<I")
            b = np.frombuffer(cur.take(blen * 4), dtype="<f4").copy()
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ModelFormatError(f"corrupt model stream: component {name} has a NaN or infinite weight")
            layers.append(Layer(w, b))
        components[name] = layers
    if cur.pos != len(data):
        raise ModelFormatError("corrupt model stream: trailing bytes")

    params = WidirParams(dims=dims, components=components)
    expected, _ = param_count(dims)
    actual = params.tally()
    for name in COMPONENT_ORDER:
        if actual[name] != expected[name]:
            raise ParamCountError(
                f"component {name} has {actual[name]} parameters, expected {expected[name]}"
            )
    plan = _layer_plan(dims)
    for name in COMPONENT_ORDER:
        shapes = [(l.w.shape, l.b.shape) for l in components[name]]
        want = [((fi, fo), (fo,)) for fi, fo, _ in plan[name]]
        if shapes != want:
            raise ModelFormatError(f"component {name} layer shapes {shapes} do not match {want}")
    return params


def save_model(path, params: WidirParams) -> None:
    """Write the model atomically: a failed write leaves the previous file."""
    with write_replace(path, "wb") as fh:
        fh.write(serialize(params))


def load_model(path) -> WidirParams:
    """The model in the file at `path`; a stream `deserialize` rejects is an error naming the file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model at {path}: {exc}") from exc
    try:
        return deserialize(data)
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
