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
from .textio import json_field, read_json, write_replace

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
        context = f"run manifest {path}"
        doc = read_json(path, context, DataError)
        if doc.get("schema") != MANIFEST_SCHEMA:
            raise DataError(f"{context}: schema {doc.get('schema')!r} != {MANIFEST_SCHEMA!r}")
        fields = {name: json_field(doc, name, kind, context, DataError) for name, kind in _FIELDS.items()}
        for group, entry_fields in _ENTRY_FIELDS.items():
            for name in fields[group]:
                entry = json_field(fields[group], name, dict, f"{context}: {group}", DataError)
                for key, kind in entry_fields.items():
                    json_field(entry, key, kind, f"{context}: {group} entry {name!r}", DataError)
        if not all(isinstance(v, str) for v in fields["config"].values()):
            raise DataError(f"{context}: config values must be strings")
        return cls(**fields)
