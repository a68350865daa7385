"""Chain persistence: one headerless CSV per chain (17 significant digits,
one iteration per row) plus a JSON metadata sidecar.

Each file is written to a temporary name in its directory and renamed into
place, so a chain file is either complete or absent. A sidecar records the
chain's shape, which loading checks."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .samplers import Chain


class ChainFileError(ValueError):
    """A chain CSV does not match the shape its metadata sidecar records."""


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


def _replace_atomically(path, write):
    """Call write(tmp) on a temporary path beside path, then rename it onto path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_chain(chain: Chain, csv_path, metadata_path=None, config: dict | None = None):
    """Write chain draws as CSV and, optionally, metadata as JSON.

    Each file appears complete or not at all; the metadata is serialized
    before anything is written, so metadata that cannot be written as JSON
    leaves no files behind.
    """
    meta_text = None
    if metadata_path is not None:
        meta_text = json.dumps(chain_metadata(chain, config), indent=2, allow_nan=False) + "\n"
    _replace_atomically(csv_path, lambda tmp: np.savetxt(tmp, chain.draws, fmt="%.17g", delimiter=","))
    if meta_text is not None:
        _replace_atomically(metadata_path, lambda tmp: tmp.write_text(meta_text))


def load_chain(csv_path, metadata_path=None) -> Chain:
    """Read a chain CSV (and metadata sidecar, if given) back into a Chain.

    With a sidecar, raises ChainFileError unless the CSV has the sidecar's
    ``iterations`` rows of ``dim`` columns, e.g. for a truncated CSV.
    """
    draws = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    meta = {}
    if metadata_path is not None:
        meta = json.loads(Path(metadata_path).read_text())
        expected = (meta.get("iterations"), meta.get("dim"))
        if draws.shape != expected:
            raise ChainFileError(
                f"{csv_path} holds {draws.shape[0]} rows of {draws.shape[1]} values; "
                f"its metadata {metadata_path} records {expected[0]} of {expected[1]}"
            )
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
