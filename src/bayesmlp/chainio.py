"""Chain persistence: one headerless CSV per chain (17 significant digits,
one iteration per row) plus a JSON metadata sidecar.

Each file is written to a temporary name in its directory and renamed into
place, so a chain file is either complete or absent. A sidecar records the
chain's shape and a CRC-32 of the CSV bytes, which loading checks. Once the
checksum has verified the whole file, a load that wants only the rows from
some start on skips the rows before it unparsed.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np

from .samplers import Chain

#: Bytes read at a time while checksumming a chain CSV, so a file is never
#: held in memory whole. Blocks of 1 MiB, which hold a whole 350 kB hawks
#: chain, raised the peak RSS of `sample` by 0.2 MB and scanned no faster.
_SCAN_BLOCK = 1 << 16


class ChainFileError(ValueError):
    """A chain CSV does not match the shape or checksum its metadata sidecar
    records."""


def format_hms(seconds: float) -> str:
    """Runtime as 'hours:minutes:seconds', e.g. 0:42:54."""
    total = int(seconds)
    return f"{total // 3600}:{total % 3600 // 60:02d}:{total % 60:02d}"


def chain_metadata(chain: Chain, config: dict | None = None) -> dict:
    if chain.first_row:
        raise ValueError("a partially loaded chain cannot be saved")
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


def _scan(path) -> tuple[int, int]:
    """Newline count and CRC-32 of a file, read block by block."""
    rows = crc = 0
    with open(path, "rb") as fh:
        while block := fh.read(_SCAN_BLOCK):
            rows += block.count(b"\n")
            crc = zlib.crc32(block, crc)
    return rows, crc


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

    Each file appears complete or not at all. The sidecar's ``crc32`` is the
    checksum of the CSV as written; metadata that cannot be written as JSON
    leaves no files behind.
    """
    meta = chain_metadata(chain, config) if metadata_path is not None else None
    meta_text = None

    def write_csv(tmp):
        nonlocal meta_text
        np.savetxt(tmp, chain.draws, fmt="%.17g", delimiter=",")
        if meta is not None:
            meta["crc32"] = _scan(tmp)[1]
            meta_text = json.dumps(meta, indent=2, allow_nan=False) + "\n"

    _replace_atomically(csv_path, write_csv)
    if meta_text is not None:
        _replace_atomically(metadata_path, lambda tmp: tmp.write_text(meta_text))


def _check_field(found, meta: dict, key: str, what: str, csv_path, metadata_path):
    if found != meta.get(key):
        raise ChainFileError(
            f"{csv_path} holds {found} {what}; its metadata {metadata_path} records {meta.get(key)}"
        )


def load_chain(csv_path, metadata_path=None, start: int = 0) -> Chain:
    """Read rows draws[start:] of a chain CSV (and its metadata sidecar, if
    given) into a Chain whose first_row is where they start; a negative
    start counts from the end, as in a slice.

    With a sidecar, raises ChainFileError unless the CSV has the sidecar's
    ``iterations`` rows of ``dim`` values, e.g. for a truncated CSV, and,
    when the sidecar records a ``crc32``, unless every byte of the CSV
    matches it. Only a verified checksum lets the rows before start go
    unparsed; otherwise the whole CSV is parsed and sliced.
    """
    meta = {}
    if metadata_path is not None:
        meta = json.loads(Path(metadata_path).read_text())
    if "crc32" in meta:
        rows, crc = _scan(csv_path)
        _check_field(rows, meta, "iterations", "rows", csv_path, metadata_path)
        if crc != meta["crc32"]:
            raise ChainFileError(
                f"{csv_path} does not match the CRC-32 its metadata {metadata_path} records"
            )
        first = slice(start, None).indices(rows)[0]
        if first < rows:
            draws = np.loadtxt(csv_path, delimiter=",", ndmin=2, skiprows=first)
        else:
            draws = np.empty((0, meta["dim"]))
    else:
        draws = np.loadtxt(csv_path, delimiter=",", ndmin=2)
        if metadata_path is not None:
            _check_field(len(draws), meta, "iterations", "rows", csv_path, metadata_path)
        first = slice(start, None).indices(len(draws))[0]
        draws = draws[first:]
    if metadata_path is not None:
        _check_field(draws.shape[1], meta, "dim", "values per row", csv_path, metadata_path)
    return Chain(
        draws,
        burnin=meta.get("burnin", 0),
        seed=meta.get("seed", 0),
        accepted=meta.get("accepted", 0),
        sampler_tag=meta.get("sampler", "unknown"),
        runtime_seconds=meta.get("runtime_seconds", 0.0),
        swap_accepted=meta.get("swap_accepted"),
        swap_attempts=meta.get("swap_attempts"),
        divergences=meta.get("divergences", 0),
        first_row=first,
    )
