"""Run manifests: per-phase artifact inventory with content digests.

Every pipeline phase records its config (inline), input artifacts and output
artifacts with sha256 digests; `reproduce` re-executes a phase from its
manifest and verifies that digest-checked outputs match bit for bit.
Artifacts whose bytes legitimately vary between runs (wall-clock timing in
training reports) are marked verify=false.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
from dataclasses import dataclass, field

from .errors import DataError
from .textio import write_replace

MANIFEST_SCHEMA = "widir-manifest-v1"
_FIELDS = {
    "run_id": str, "phase": str, "seed": int, "created_utc": str,
    "config": dict, "inputs": dict, "outputs": dict, "schema_versions": dict,
}
_ENTRY_FIELDS = {
    "inputs": {"path": str, "sha256": str},
    "outputs": {"path": str, "sha256": str, "verify": bool},
}


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_tree(path) -> str:
    """Composite digest of a directory: sorted (relpath, file digest) pairs."""
    h = hashlib.sha256()
    entries = []
    for root, _, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            entries.append((os.path.relpath(full, path), sha256_file(full)))
    for rel, digest in sorted(entries):
        h.update(rel.encode())
        h.update(b"\0")
        h.update(digest.encode())
        h.update(b"\n")
    return h.hexdigest()


def digest_path(path) -> str:
    return sha256_tree(path) if os.path.isdir(path) else sha256_file(path)


@dataclass
class RunManifest:
    run_id: str
    phase: str
    seed: int
    created_utc: str = ""
    config: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)   # name -> {path, sha256}
    outputs: dict = field(default_factory=dict)  # name -> {path, sha256, verify}
    schema_versions: dict = field(default_factory=dict)

    # paths are recorded absolute, so a run can be reproduced from any working directory
    def add_input(self, name: str, path) -> None:
        self.inputs[name] = {"path": os.path.abspath(path), "sha256": digest_path(path)}

    def add_output(self, name: str, path, verify: bool = True) -> None:
        self.outputs[name] = {"path": os.path.abspath(path), "sha256": digest_path(path), "verify": verify}

    @staticmethod
    def _dir(out_root) -> str:
        return os.path.join(str(out_root), "manifests")

    def save(self, out_root) -> str:
        os.makedirs(self._dir(out_root), exist_ok=True)
        path = os.path.join(self._dir(out_root), f"{self.run_id}.json")
        if os.path.exists(path):
            raise DataError(f"run_id {self.run_id!r} already exists at {path}")
        if not self.created_utc:
            self.created_utc = dt.datetime.now(dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        doc = {
            "schema": MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "phase": self.phase,
            "seed": self.seed,
            "created_utc": self.created_utc,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "schema_versions": self.schema_versions,
        }
        with write_replace(path) as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        return path

    @classmethod
    def load(cls, out_root, run_id: str) -> "RunManifest":
        path = os.path.join(cls._dir(out_root), f"{run_id}.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise DataError(f"no manifest for run_id {run_id!r} at {path}") from exc
        except ValueError as exc:  # not JSON, or not UTF-8
            raise DataError(f"{path}: manifest is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise DataError(f"{path}: a manifest is a JSON object, not {type(doc).__name__}")
        if doc.get("schema") != MANIFEST_SCHEMA:
            raise DataError(f"{path}: manifest schema {doc.get('schema')!r} != {MANIFEST_SCHEMA!r}")
        for name, kind in _FIELDS.items():
            if type(doc.get(name)) is not kind:  # exact, so a bool is not an int seed
                raise DataError(f"{path}: manifest field {name!r} is missing or not a {kind.__name__}")
        for group, entry_fields in _ENTRY_FIELDS.items():
            for name, entry in doc[group].items():
                if not isinstance(entry, dict) or any(
                    type(entry.get(k)) is not kind for k, kind in entry_fields.items()
                ):
                    raise DataError(f"{path}: manifest {group} entry {name!r} needs {sorted(entry_fields)}")
        if not all(isinstance(v, str) for v in doc["config"].values()):
            raise DataError(f"{path}: manifest config values must be strings")
        return cls(**{name: doc[name] for name in _FIELDS})
