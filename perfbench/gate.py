"""Correctness gate: figure digests against references, plus paper claims.

Each figure's CSV (the file ``repro figure --out`` writes) is hashed and
compared with the digest recorded from the plain serial path at full
resolution (``references.json``, made by ``make_references.py``).  The
figure JSONs are loaded back and every paper expectation is evaluated
on them.  A missing or unreadable output counts as a mismatch, and a
claim that cannot be evaluated counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")


@dataclass
class GateResult:
    figures: int = 0
    mismatched: list[str] = field(default_factory=list)
    claims: int = 0
    claims_failed: list[str] = field(default_factory=list)
    points: int = 0
    digests: dict[str, str | None] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.figures + self.claims

    @property
    def failed(self) -> int:
        return len(self.mismatched) + len(self.claims_failed)


def load_references(variant: str | None = None) -> dict[str, str]:
    """Per-figure CSV digests: the default config, or one resim variant."""
    refs = json.loads(REFERENCES.read_text())
    return refs["default"] if variant is None else refs["variants"][variant]


def csv_digest(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()


def output_digests(out_dir: Path, figures: list[str]) -> dict[str, str | None]:
    digests: dict[str, str | None] = {}
    for name in figures:
        try:
            digests[name] = csv_digest((out_dir / f"{name}.csv").read_bytes())
        except OSError:
            digests[name] = None
    return digests


def check(out_dir: Path, figures: list[str], references: dict[str, str]) -> GateResult:
    """Check one iteration's outputs in ``out_dir``."""
    from repro.reporting import EXPECTATIONS, check_expectations
    from repro.suite.results import ResultSet

    gate = GateResult(
        figures=len(figures),
        claims=len(EXPECTATIONS),
        digests=output_digests(out_dir, figures),
    )
    results = {}
    for name, digest in gate.digests.items():
        if digest is None or digest != references.get(name):
            gate.mismatched.append(name)
        try:
            results[name] = ResultSet.load(out_dir / f"{name}.json")
        except (OSError, ValueError, KeyError, TypeError):
            continue
        gate.points += sum(len(series) for series in results[name].series)
    passed = [o.expectation for o in check_expectations(results) if o.passed]
    gate.claims_failed = [
        f"{e.figure}: {e.claim}"
        for e in EXPECTATIONS
        if not any(e is p for p in passed)
    ]
    return gate
