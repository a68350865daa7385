"""Chain persistence: one headerless CSV per chain (17 significant digits,
one iteration per row) plus a JSON metadata sidecar."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .samplers import Chain


def format_hms(seconds: float) -> str:
    """Runtime as 'hours:minutes:seconds', e.g. 0:42:54."""
    total = int(seconds)
    return f"{total // 3600}:{total % 3600 // 60:02d}:{total % 60:02d}"


def chain_metadata(chain: Chain, config: dict | None = None) -> dict:
    meta = {
        "sampler": chain.sampler_tag,
        "seed": chain.seed,
        "burnin": chain.burnin,
        "accepted": chain.accepted,
        "runtime_seconds": chain.runtime_seconds,
        "runtime_hms": format_hms(chain.runtime_seconds),
        "iterations": len(chain),
        "dim": chain.dim,
        "config": config or {},
    }
    if chain.swap_attempts is not None:
        meta["swap_accepted"] = chain.swap_accepted
        meta["swap_attempts"] = chain.swap_attempts
    if chain.divergences:
        meta["divergences"] = chain.divergences
    return meta


def save_chain(chain: Chain, csv_path, metadata_path=None, config: dict | None = None):
    """Write chain draws as CSV and, optionally, metadata as JSON."""
    csv_path = Path(csv_path)
    np.savetxt(csv_path, chain.draws, fmt="%.17g", delimiter=",")
    if metadata_path is not None:
        Path(metadata_path).write_text(
            json.dumps(chain_metadata(chain, config), indent=2, allow_nan=False) + "\n"
        )


def load_chain(csv_path, metadata_path=None) -> Chain:
    """Read a chain CSV (and metadata sidecar, if given) back into a Chain."""
    draws = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    meta = {}
    if metadata_path is not None:
        meta = json.loads(Path(metadata_path).read_text())
    chain = Chain(
        draws,
        burnin=meta.get("burnin", 0),
        seed=meta.get("seed", 0),
        accepted=meta.get("accepted", 0),
        sampler_tag=meta.get("sampler", "unknown"),
        runtime_seconds=meta.get("runtime_seconds", 0.0),
        swap_accepted=meta.get("swap_accepted"),
        swap_attempts=meta.get("swap_attempts"),
        divergences=meta.get("divergences", 0),
    )
    return chain
