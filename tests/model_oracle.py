"""The flat wide-and-deep graph and its hand-written backward pass: the oracle.

Every pair side runs the whole graph on its own concatenated row, and the
backward pass restates the graph by hand, slicing the concatenations at
fixed columns. The factored graph in `widir.model` must agree with it.
"""

from __future__ import annotations

import numpy as np

from widir.model import Layer, WidirParams, _layer_plan, hinge_losses


def astype(params: WidirParams, dtype) -> WidirParams:
    """A copy of `params` with every weight and bias in `dtype`, for float64 reference runs."""
    return WidirParams(
        dims=params.dims,
        components={
            name: [Layer(l.w.astype(dtype), l.b.astype(dtype)) for l in layers]
            for name, layers in params.components.items()
        },
    )


def _mlp(layers, flags, x, mm, cache):
    for layer, relu in zip(layers, flags):
        z = mm(x, layer.w) + layer.b
        if cache is not None:
            cache.append((x, z))
        x = np.maximum(z, 0.0) if relu else z
    return x


def graph_forward(params: WidirParams, player, contest, interaction, mm=np.matmul, caches=None):
    """Scores of N concatenated rows; fills caches[name] with (input, pre-activation) per layer."""
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
    comb = run("combined", run("deep", np.concatenate([pb, cb, ib], axis=1)))
    wide = run("wide", np.concatenate([player, contest, interaction], axis=1))
    return run("final", np.concatenate([comb, wide], axis=1))[:, 0]


def einsum_scores(params: WidirParams, player, contest, interaction):
    """The flat graph with every matmul as a plain einsum."""
    return graph_forward(params, player, contest, interaction, lambda x, w: np.einsum("nk,km->nm", x, w))


def min_abs_preactivation(params: WidirParams, player, contest, interaction) -> float:
    """Smallest |pre-activation| over every ReLU unit: the distance to a kink."""
    plan = _layer_plan(params.dims)
    caches: dict[str, list] = {}
    graph_forward(params, player, contest, interaction, caches=caches)
    return min(
        float(np.abs(z).min())
        for name, cache in caches.items()
        for (_, z), (_, _, relu) in zip(cache, plan[name])
        if relu
    )


def _mlp_backward(layers, flags, cache, upstream, grads, need_input_grad=True):
    dx = upstream
    for idx in range(len(layers) - 1, -1, -1):
        x, z = cache[idx]
        dz = dx * (z > 0) if flags[idx] else dx
        grads[idx].w += x.T @ dz
        grads[idx].b += dz.sum(axis=0)
        if idx > 0 or need_input_grad:
            dx = dz @ layers[idx].w.T
    return dx if need_input_grad else None


def backward_batch(params: WidirParams, pos, neg) -> tuple[WidirParams, np.ndarray]:
    """Summed gradient of the pairwise hinge over N pairs of flat rows, and the per-pair losses."""
    plan = _layer_plan(params.dims)
    flags = {name: [f for _, _, f in plan[name]] for name in plan}
    grads = params.zeros_like()
    sides = []
    for p, c, i in (pos, neg):
        caches: dict[str, list] = {}
        sides.append((graph_forward(params, p, c, i, caches=caches), caches))
    (s_pos, cache_pos), (s_neg, cache_neg) = sides
    losses = hinge_losses(s_pos, s_neg)
    active = (losses > 0.0).astype(s_pos.dtype)
    c, g = params.components, grads.components
    for caches, sign in ((cache_pos, -1.0), (cache_neg, 1.0)):
        dz = _mlp_backward(c["final"], flags["final"], caches["final"], sign * active[:, None], g["final"])
        dcomb, dwide = dz[:, :4], dz[:, 4:5]
        _mlp_backward(c["wide"], flags["wide"], caches["wide"], dwide, g["wide"], need_input_grad=False)
        ddeep = _mlp_backward(c["combined"], flags["combined"], caches["combined"], dcomb, g["combined"])
        dh = _mlp_backward(c["deep"], flags["deep"], caches["deep"], ddeep, g["deep"])
        for name, d in (("player_branch", dh[:, :64]), ("contest_branch", dh[:, 64:128]),
                        ("interaction_branch", dh[:, 128:144])):
            _mlp_backward(c[name], flags[name], caches[name], d, g[name], need_input_grad=False)
    return grads, losses
