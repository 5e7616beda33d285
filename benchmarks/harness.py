"""Shared pieces of the benchmark: spans, statistics, memory and the environment.

The tracer records spans from outside the program: it replaces public
functions and methods of the `widir` modules with timing wrappers for the
length of a traced run, then puts the originals back. Untraced runs only
record the handful of spans the workloads place around whole operations.
"""

from __future__ import annotations

import ctypes
import glob
import gzip
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Cap OpenBLAS at nproc threads; must run before numpy is imported."""
    cap = nproc()
    want = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(want), cap) if want.isdigit() and int(want) > 0 else cap
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return threads


# --- statistics ---------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); inf entries sort last."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU time a process has used so far."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()  # fields after the command name
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def tree_bytes(path) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


# --- spans -------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: (id, parent, name, start_ns, end_ns) per span."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[int] = [0]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _wrap_call(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_iter(self, fn, name: str):
        """Each resumption of the generator up to its next yield is one span."""
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    with tracer.span(name):
                        item = next(it)
                except StopIteration:
                    tracer.spans.pop()  # the call that found the generator exhausted
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr: str, name: str, generator: bool = False) -> None:
        """A span around every call of `module.attr`."""
        self.replace(module, attr, lambda fn: (self._wrap_iter if generator else self._wrap_call)(fn, name))

    def replace(self, module, attr: str, make_wrapper) -> None:
        """Put make_wrapper(module.attr) in every widir module that imported it by name."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "widir" or mod_name.startswith("widir.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap_call(original, name))

    def restore(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- reading spans back; `since` is a len(spans) taken earlier --

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Seconds of every span called `name` that ended after mark `since`."""
        return [(t1 - t0) / 1e9 for _, _, n, t0, t1 in self.spans[since:] if n == name]

    def total(self, name: str, since: int = 0) -> float:
        return sum(self.durations(name, since))

    def coverage(self, phase_names: set[str], since: int = 0) -> float:
        """Share of the phase spans' wall time that lies inside their child spans."""
        recent = self.spans[since:]
        phase = {sid: (t1 - t0) for sid, _, n, t0, t1 in recent if n in phase_names}
        covered = sum(t1 - t0 for _, parent, _, t0, t1 in recent if parent in phase)
        total = sum(phase.values())
        return covered / total if total else 0.0

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp"
        with gzip.open(tmp, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        os.replace(tmp, path)


def patch_public_calls(tracer: Tracer) -> None:
    """A span around every public call the pipeline makes between modules."""
    import widir.pipeline  # noqa: F401  (its by-name imports must exist before patching)
    from widir import evaluation, features, generator, inference, manifest, model, serving, training

    for module, attr, name, is_gen in (
        (generator, "generate_synthetic", "generator.generate_synthetic", False),
        (generator, "load_world_dir", "domain.load_world", False),
        (features, "enrich_joins", "features.enrich_joins", False),
        (features, "fit_normalization", "features.fit_normalization", False),
        (features, "iter_snapshots", "features.snapshot_day", True),
        (features, "build_template_block", "features.build_template_block", False),
        (model, "forward_batch", "model.forward_batch", False),
        (model, "backward_batch", "model.backward_batch", False),
        (model, "load_model", "model.load_model", False),
        (model, "save_model", "model.save_model", False),
        (training, "build_ordered_lists", "training.build_ordered_lists", False),
        (training, "assemble_pair_dataset", "training.assemble_pair_dataset", False),
        (training, "train", "training.train", False),
        (training, "write_report", "training.write_report", False),
        (evaluation, "evaluate", "evaluation.evaluate", False),
        (inference, "active_players", "inference.active_players", False),
        (inference, "run_batch", "inference.run_batch", False),
        (inference, "write_payloads", "inference.write_payloads", False),
        (inference, "read_payloads", "inference.read_payloads", False),
        (serving, "load_fallbacks", "serving.load_fallbacks", False),
        (manifest, "digest_path", "manifest.digest_path", False),
    ):
        tracer.patch_function(module, attr, name, generator=is_gen)
    for cls, attr, name in (
        (generator.SyntheticWorld, "write_dir", "generator.write_dir"),
        (features.SnapshotStore, "write_day", "features.write_day"),
        (features.SnapshotStore, "read_day", "features.read_day"),
        (features.TemplateBlock, "interaction_matrix", "features.interaction_matrix"),
        (serving.OnlineStore, "put", "serving.put"),
        (manifest.RunManifest, "save", "manifest.save"),
    ):
        tracer.patch_method(cls, attr, name)


# --- environment ---------------------------------------------------------------------


def _openblas_lib():
    import numpy

    base = os.path.dirname(numpy.__file__)
    for pattern in ("../numpy.libs/libscipy_openblas*", "../scipy_openblas64/lib/*.so*",
                    ".libs/libopenblas*", "../numpy.libs/libopenblas*"):
        hits = sorted(glob.glob(os.path.join(base, pattern)))
        if hits:
            return ctypes.CDLL(hits[0])
    return None


def _openblas_call(lib, suffixes, restype):
    for name in suffixes:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def environment(root: str) -> dict:
    """What the numbers depend on: cores, interpreter, numpy, OpenBLAS, source."""
    import numpy

    lib = _openblas_lib()
    config = _openblas_call(
        lib, ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"),
        ctypes.c_char_p,
    )
    threads = _openblas_call(
        lib,
        ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"),
        ctypes.c_int,
    )
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": config.decode() if config else "unknown",
        "openblas_threads": threads,
        "git_sha": _git_sha(root),
        "src_sha256": _src_digest(os.path.join(root, "src")),
    }


def _git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, src).encode())
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()
