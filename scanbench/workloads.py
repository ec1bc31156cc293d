"""The three compile-then-scan workloads, built from a seed.

Each workload pairs a fixed rule set with seeded traffic.  The rule sets
never depend on ``--seed``: RegexLib-64 is drawn once with
:data:`PATTERN_SEED` (the grid the ROADMAP names), and the record
profiles are the hand-written ``WORKLOAD_PROFILES``.  The seed drives
only the traffic, so two seeds measure the same program on different
bytes of the same shape.

Every workload is a closed loop from one process: each ``feed()``,
``finish()`` or ``scan()`` is issued when the previous one returns.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro

from repro.workloads import (
    PROFILES,
    WORKLOAD_PROFILES,
    dataset_stream,
    load_dataset,
)

#: Seed of the generated rule sets; fixed so only traffic varies by seed.
PATTERN_SEED = 1

#: Generated inputs and reference digests, beside the benchmark.
CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".cache")

#: ``feed()`` granularity of the stream workloads.
CHUNK_BYTES = 64 * 1024

#: Stream length of the stream workloads at scale 1.
STREAM_BYTES = 4 * 1024 * 1024

#: Records per run of ``anchored_records`` at scale 1, over all profiles.
RECORDS = 120_000

#: Share of records planted with a match.
RECORD_MATCH_RATE = 0.05

#: Profiles of ``anchored_records``, scanned round-robin.
RECORD_PROFILES = ("log_scan", "ids", "pii")

#: Worker count of ``sharded_stream``.
SHARDS = 2


@dataclass(frozen=True)
class Spec:
    """What a workload runs: rule source, engine and traffic shape."""

    name: str
    engine: str
    kind: str  # "stream" or "records"
    dataset: Optional[str] = None
    num_patterns: int = 0


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("regexlib_stream", "fused", "stream", "RegexLib", 64),
        Spec("anchored_records", "fused", "records"),
        Spec("sharded_stream", "sharded", "stream", "RegexLib", 64),
    )
}


@dataclass
class Inputs:
    """Everything one run scans, generated before any timing.

    Stream workloads have one rule set (``patterns``) and ``chunks``;
    record workloads have one rule-line list per profile in
    ``rule_lines`` and ``records[i]`` is scanned by profile
    ``owner[i]``.
    """

    spec: Spec
    seed: int
    patterns: List[str] = field(default_factory=list)
    chunks: List[bytes] = field(default_factory=list)
    rule_lines: List[List[str]] = field(default_factory=list)
    records: List[bytes] = field(default_factory=list)
    owner: List[int] = field(default_factory=list)

    @property
    def operations(self) -> int:
        """Operations per scan: chunks plus ``finish()``, or records."""
        if self.spec.kind == "stream":
            return len(self.chunks) + 1
        return len(self.records)

    @property
    def scan_bytes(self) -> int:
        if self.spec.kind == "stream":
            return sum(len(chunk) for chunk in self.chunks)
        return sum(len(record) for record in self.records)

    def digests(self) -> Dict[str, Dict[str, object]]:
        """Byte count and sha256 of each input, for provenance."""
        if self.spec.kind == "stream":
            parts = {"stream": b"".join(self.chunks)}
        else:
            parts = {
                name: b"\n".join(
                    record
                    for record, owner in zip(self.records, self.owner)
                    if owner == index
                )
                for index, name in enumerate(RECORD_PROFILES)
            }
        return {
            name: {
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
            for name, data in parts.items()
        }


def _generator_digest() -> str:
    """Digest of the program sources that generate inputs, so a cached
    input never outlives a change to its generator."""
    digest = hashlib.sha256()
    base = os.path.dirname(repro.__file__)
    for package in ("workloads", "regex"):
        folder = os.path.join(base, package)
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    return digest.hexdigest()


def _generate(spec: Spec, seed: int, scale: float) -> Inputs:
    inputs = Inputs(spec=spec, seed=seed)
    if spec.kind == "stream":
        inputs.patterns = load_dataset(
            spec.dataset, spec.num_patterns, PATTERN_SEED
        )
        length = max(1, int(STREAM_BYTES * scale))
        stream = dataset_stream(
            inputs.patterns,
            random.Random(seed),
            length,
            PROFILES[spec.dataset].literal_pool,
        )
        inputs.chunks = [
            stream[base : base + CHUNK_BYTES]
            for base in range(0, len(stream), CHUNK_BYTES)
        ]
        return inputs
    profiles = [WORKLOAD_PROFILES[p] for p in RECORD_PROFILES]
    inputs.rule_lines = [profile.ruleset_lines() for profile in profiles]
    rng = random.Random(seed)
    count = max(len(profiles), int(RECORDS * scale))
    for index in range(count):
        owner = index % len(profiles)
        inputs.owner.append(owner)
        inputs.records.append(
            profiles[owner].record(rng, rng.random() < RECORD_MATCH_RATE)
        )
    return inputs


def build(name: str, seed: int, scale: float = 1.0) -> Inputs:
    """The named workload's inputs for ``seed``; ``scale`` shrinks the
    traffic (the self-tests run at a tiny scale).

    Generation is deterministic in the seed and slow (one RNG draw per
    byte), so the result is kept under :data:`CACHE_DIR`: one JSON header
    line, then the chunks or records back to back.
    """
    spec = SPECS[name]
    key = hashlib.sha256(
        repr((spec, seed, scale, PATTERN_SEED, CHUNK_BYTES, RECORDS,
              RECORD_MATCH_RATE, _generator_digest())).encode()
    ).hexdigest()[:24]
    path = os.path.join(CACHE_DIR, f"inputs-{key}.bin")
    try:
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            body = handle.read()
    except (OSError, ValueError):
        inputs = _generate(spec, seed, scale)
        parts = inputs.chunks or inputs.records
        header = {
            "patterns": inputs.patterns,
            "rule_lines": inputs.rule_lines,
            "owner": inputs.owner,
            "lengths": [len(part) for part in parts],
        }
        os.makedirs(CACHE_DIR, exist_ok=True)
        scratch = f"{path}.{os.getpid()}.tmp"
        with open(scratch, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            handle.write(b"".join(parts))
        os.replace(scratch, path)
        return inputs
    parts, offset = [], 0
    for length in header["lengths"]:
        parts.append(body[offset : offset + length])
        offset += length
    inputs = Inputs(
        spec=spec,
        seed=seed,
        patterns=header["patterns"],
        rule_lines=header["rule_lines"],
        owner=header["owner"],
    )
    if spec.kind == "stream":
        inputs.chunks = parts
    else:
        inputs.records = parts
    return inputs
