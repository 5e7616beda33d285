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

Numerics note: the public scoring path computes each matmul as one stacked
BLAS call over fixed slices of SLICE_ROWS rows, zero-padding only the tail
slice, and width-1 layers as row-wise reductions. Every row therefore goes
through a GEMM of the same shape whatever the batch size or its position in
the batch, so scoring a batch equals scoring rows one at a time bit for
bit. A plain `x @ w` is not row-stable this way: BLAS picks its blocking
and kernels from the batch shape, so a row's rounding follows the batch.
SLICE_ROWS is a constant because the scores' last bits depend on it. The
trainer uses `fast=True` for plain BLAS matmul, which is row-stable only up
to float rounding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimensionError, ModelFormatError, ModelVersionError, ParamCountError
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

    def astype(self, dtype) -> "WidirParams":
        return WidirParams(
            dims=self.dims,
            components={
                name: [Layer(l.w.astype(dtype), l.b.astype(dtype)) for l in layers]
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


# --- forward -----------------------------------------------------------------


# Rows per GEMM on the exact path. Fixed, so that every row's product runs
# through a BLAS call of one shape whatever the batch size; changing it
# changes exact scores in their last bits.
SLICE_ROWS = 8


def _mm_exact(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w as one stacked matmul over fixed slices of SLICE_ROWS rows.

    Each slice is its own (SLICE_ROWS, k) @ (k, m) GEMM, so a row's result
    does not depend on how many rows surround it. Only the tail slice is
    copied, zero-padded to full height.
    """
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


def _apply_layer(x: np.ndarray, layer: Layer, mm) -> np.ndarray:
    if layer.w.shape[1] == 1:
        # width-1 products via a row-wise reduction: batch-size independent
        return ((x * layer.w[:, 0]).sum(axis=1) + layer.b[0])[:, None]
    return mm(x, layer.w) + layer.b


def _mlp(layers: list[Layer], flags: list[bool], x: np.ndarray, mm, cache: list | None):
    for layer, relu in zip(layers, flags):
        z = _apply_layer(x, layer, mm)
        if cache is not None:
            cache.append((x, z))
        x = np.maximum(z, 0.0) if relu else z
    return x


def _check_inputs(params: WidirParams, player, contest, interaction) -> None:
    dims = params.dims
    for name, arr, want in (
        ("player_branch", player, dims.d_p),
        ("contest_branch", contest, dims.d_c),
        ("interaction_branch", interaction, dims.d_i),
    ):
        if arr.ndim != 2 or arr.shape[1] != want:
            raise DimensionError(
                f"{name} expects input dim {want}, got shape {tuple(arr.shape)}"
            )
    if not (player.shape[0] == contest.shape[0] == interaction.shape[0]):
        raise DimensionError("player/contest/interaction batches differ in length")


def _graph_forward(params: WidirParams, player, contest, interaction, mm, caches=None):
    plan = _layer_plan(params.dims)
    flags = {name: [f for _, _, f in plan[name]] for name in plan}
    c = params.components

    def run(name, x):
        cache = [] if caches is not None else None
        out = _mlp(c[name], flags[name], x, mm, cache)
        if caches is not None:
            caches[name] = cache
        return out

    pb = run("player_branch", player)
    cb = run("contest_branch", contest)
    ib = run("interaction_branch", interaction)
    deep_in = np.concatenate([pb, cb, ib], axis=1)
    comb = run("combined", run("deep", deep_in))
    wide = run("wide", np.concatenate([player, contest, interaction], axis=1))
    score = run("final", np.concatenate([comb, wide], axis=1))
    return score[:, 0]


def forward_batch(
    params: WidirParams,
    player: np.ndarray,
    contest: np.ndarray,
    interaction: np.ndarray,
    fast: bool = False,
) -> np.ndarray:
    """Scores for N feature triples; equals N single forward calls exactly.

    The default path runs each matmul over fixed SLICE_ROWS-row slices (see
    `_mm_exact`), so a row's score does not depend on the batch it is in.
    `fast=True` runs plain `x @ w`, whose per-row rounding can follow the
    batch shape; training uses it.
    """
    player = np.atleast_2d(np.asarray(player))
    contest = np.atleast_2d(np.asarray(contest))
    interaction = np.atleast_2d(np.asarray(interaction))
    _check_inputs(params, player, contest, interaction)
    return _graph_forward(params, player, contest, interaction, _mm_fast if fast else _mm_exact)


# --- loss ----------------------------------------------------------------------


def hinge_losses(s_pos: np.ndarray, s_neg: np.ndarray) -> np.ndarray:
    """Pairwise hinge per pair: max(0, 1 - (s_pos - s_neg)); depends on the difference only."""
    return np.maximum(0.0, 1.0 - (np.asarray(s_pos) - np.asarray(s_neg)))


# --- backward --------------------------------------------------------------------


def _mlp_backward(layers, flags, cache, upstream, grads, need_input_grad=True):
    dx = upstream
    for idx in range(len(layers) - 1, -1, -1):
        x, z = cache[idx]
        layer = layers[idx]
        dz = dx * (z > 0) if flags[idx] else dx
        g = grads[idx]
        if layer.w.shape[1] == 1:
            g.w += (x * dz[:, 0][:, None]).sum(axis=0)[:, None]
        else:
            g.w += x.T @ dz
        g.b += dz.sum(axis=0)
        if idx > 0 or need_input_grad:
            dx = dz @ layer.w.T
    return dx if need_input_grad else None


def backward_batch(
    params: WidirParams,
    pos: tuple[np.ndarray, np.ndarray, np.ndarray],
    neg: tuple[np.ndarray, np.ndarray, np.ndarray],
    fast: bool = False,
) -> tuple[WidirParams, np.ndarray]:
    """Summed exact gradient of the pairwise hinge over N pairs.

    Returns (grads shaped like the parameters, per-pair losses). Pairs whose
    margin is satisfied (including exactly met, where the kink subgradient is
    taken as 0) contribute nothing.
    """
    mm = _mm_fast if fast else _mm_exact
    plan = _layer_plan(params.dims)
    flags = {name: [f for _, _, f in plan[name]] for name in plan}
    grads = params.zeros_like()

    sides = []
    for (p, c, i) in (pos, neg):
        p, c, i = np.atleast_2d(p), np.atleast_2d(c), np.atleast_2d(i)
        _check_inputs(params, p, c, i)
        caches: dict[str, list] = {}
        scores = _graph_forward(params, p, c, i, mm, caches)
        sides.append((scores, caches))
    (s_pos, cache_pos), (s_neg, cache_neg) = sides

    losses = hinge_losses(s_pos, s_neg)
    active = losses > 0.0
    dtype = s_pos.dtype

    for caches, sign in ((cache_pos, -1.0), (cache_neg, 1.0)):
        upstream = (sign * active.astype(dtype))[:, None]
        c = params.components
        g = grads.components
        dz = _mlp_backward(c["final"], flags["final"], caches["final"], upstream, g["final"])
        dcomb, dwide = dz[:, :4], dz[:, 4:5]
        _mlp_backward(c["wide"], flags["wide"], caches["wide"], dwide, g["wide"], need_input_grad=False)
        ddeep = _mlp_backward(c["combined"], flags["combined"], caches["combined"], dcomb, g["combined"])
        dh = _mlp_backward(c["deep"], flags["deep"], caches["deep"], ddeep, g["deep"])
        dpb, dcb, dib = dh[:, :64], dh[:, 64:128], dh[:, 128:144]
        _mlp_backward(c["player_branch"], flags["player_branch"], caches["player_branch"], dpb, g["player_branch"], need_input_grad=False)
        _mlp_backward(c["contest_branch"], flags["contest_branch"], caches["contest_branch"], dcb, g["contest_branch"], need_input_grad=False)
        _mlp_backward(c["interaction_branch"], flags["interaction_branch"], caches["interaction_branch"], dib, g["interaction_branch"], need_input_grad=False)
    return grads, losses


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
    try:
        with open(path, "rb") as fh:
            return deserialize(fh.read())
    except OSError as exc:
        raise ModelFormatError(f"cannot read model at {path}: {exc}") from exc
