"""The in-process latency harness of the rank path, behind criterion 9 and the serving tests."""

from __future__ import annotations

import json
import time
from typing import Sequence

import numpy as np

from widir.serving import OnlineStore, handle_rank_body


def run_latency_harness(
    store: OnlineStore,
    player_id: str,
    match_id: str,
    contests: Sequence[tuple[str, str]],
    n_requests: int = 10_000,
    seed: int = 0,
) -> dict:
    """Measure the in-process request path (parse -> rank -> serialize).

    Latency is measured in-process by design: the budget applies to ranking
    work, not network transit. Returns millisecond percentiles.
    """
    rng = np.random.default_rng(seed)
    contests = list(contests)
    bodies = []
    for _ in range(16):
        order = rng.permutation(len(contests))
        bodies.append(
            json.dumps(
                {
                    "player_id": player_id,
                    "match_id": match_id,
                    "contests": [
                        {"contest_id": contests[i][0], "template_id": contests[i][1]} for i in order
                    ],
                }
            ).encode()
        )
    samples_ms = np.empty(n_requests, dtype=np.float64)
    for i in range(n_requests):
        body = bodies[i % len(bodies)]
        t0 = time.perf_counter_ns()
        status, _ = handle_rank_body(store, body)
        samples_ms[i] = (time.perf_counter_ns() - t0) / 1e6
        if status != 200:
            raise RuntimeError(f"latency harness got status {status}")
    samples_ms.sort()

    def pct(q: float) -> float:
        return float(samples_ms[min(int(q * (n_requests - 1)), n_requests - 1)])

    return {
        "note": "in-process latency: request parse through response serialize (no network transit)",
        "n_requests": n_requests,
        "n_contests": len(contests),
        "p50_ms": pct(0.50),
        "p90_ms": pct(0.90),
        "p99_ms": pct(0.99),
        "max_ms": float(samples_ms[-1]),
    }
