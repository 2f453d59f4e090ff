"""Deterministic seed derivation.

Every source of randomness in the package draws from a named stream derived
from one root seed, so that e.g. changing the number of training epochs can
never perturb which architectures get sampled.
"""

from __future__ import annotations

import hashlib


def seed_stream(root_seed: int, label: str, *indices: int) -> int:
    """Derive a 63-bit child seed from a root seed in [-2**63, 2**63), a
    purpose label and optional integer indices (e.g. a round number)."""
    if not -(2**63) <= root_seed < 2**63:
        raise ValueError(f"root_seed must lie in [-2**63, 2**63), got {root_seed}")
    h = hashlib.blake2b(digest_size=8)
    h.update(int(root_seed).to_bytes(8, "little", signed=True))
    h.update(label.encode("utf-8"))
    for ix in indices:
        h.update(int(ix).to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest(), "little") >> 1
