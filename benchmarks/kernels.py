"""Kernel section of the traced run: model forward/backward at fixed batch sizes,
and the batch-invariance property of the exact scoring path.

Batched exact scores must equal one-row-at-a-time scores bit for bit, at
any batch size and offset; payloads vs model_rank and the criterion-10
reproducibility rest on it.
"""

from __future__ import annotations

import time

import numpy as np

from harness import median
from workload import Context, Outcome

FORWARD_ROWS = 8192
BACKWARD_PAIRS = 4096
REPEATS = 5
# sizes around the 256-row boundary and not multiples of it; offsets shift the rows
INVARIANCE_SIZES = (1, 7, 255, 256, 257, 1000, 4099)
INVARIANCE_OFFSETS = (0, 5, 131)


def _median_time(fn) -> float:
    fn()  # warm caches and BLAS buffers
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def run(ctx: Context, out: Outcome) -> None:
    from widir.features import D_C, D_I, D_P
    from widir.model import WidirDims, backward_batch, forward_batch, init_params

    rng = np.random.default_rng(ctx.seed)
    params = init_params(WidirDims(), ctx.seed)

    def rows(n):
        return tuple(rng.standard_normal((n, d)).astype(np.float32) for d in (D_P, D_C, D_I))

    x = rows(FORWARD_ROWS)
    pos, neg = rows(BACKWARD_PAIRS), rows(BACKWARD_PAIRS)
    out.layer["model.forward_exact_ms"] = 1e3 * _median_time(lambda: forward_batch(params, *x))
    out.layer["model.forward_fast_ms"] = 1e3 * _median_time(lambda: forward_batch(params, *x, fast=True))
    out.layer["model.backward_ms"] = 1e3 * _median_time(lambda: backward_batch(params, pos, neg, fast=True))

    n = max(INVARIANCE_OFFSETS) + max(INVARIANCE_SIZES)
    singles = np.array([forward_batch(params, *(a[i : i + 1] for a in x))[0] for i in range(n)])
    for size in INVARIANCE_SIZES:
        for offset in INVARIANCE_OFFSETS:
            out.attempted += 1
            batch = forward_batch(params, *(a[offset : offset + size] for a in x))
            same = batch.tobytes() == singles[offset : offset + size].tobytes()
            if not out.check(same, f"exact forward_batch of {size} rows at offset {offset} "
                                   f"differs from one-row scoring"):
                out.failed += 1
