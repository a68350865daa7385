"""Chain persistence: the ``Chain`` container, one headerless CSV per chain
(17 significant digits, one iteration per row), a JSON metadata sidecar and,
beside both, an exact binary copy of the draws.

Each file is written to a temporary name in its directory, and the files
are renamed into place only once all of them are written, the sidecar
last, so a chain's files are complete or absent and a sidecar vouches for
files that are all there. The sidecar records the chain's shape, a CRC-32
of the CSV bytes (``crc32``) and a CRC-32 of the binary copy
(``npy_crc32``), a float64 C-order ``.npy`` file of shape
``(iterations, dim)``. ChainRows checks a chain's files against its
sidecar, reading each block by block, before it serves any row; it then
serves the rows from some start on in blocks read from the binary copy, on
each pass, or, without the copy, parses those rows of the CSV once.
"""

from __future__ import annotations

import json
import os
import typing
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Bytes read at a time while checksumming a chain file, so a file is never
#: held in memory whole. Blocks of 1 MiB, which hold a whole 350 kB hawks
#: chain, raised the peak RSS of `sample` by 0.2 MB and scanned no faster.
_SCAN_BLOCK = 1 << 16

#: Sidecar key of the binary copy's CRC-32; sidecars written before the
#: binary copy existed lack it, and their chains load from the CSV.
BINARY_CRC_KEY = "npy_crc32"


class ChainFileError(ValueError):
    """A chain CSV or its binary copy does not match the shape or checksum
    its metadata sidecar records."""


@dataclass
class Chain:
    """A realized chain, one iteration per row.

    draws holds the iterations from first_row on: all of them (burn-in
    included) for a sampled chain, a tail for a partially loaded one.
    burnin and accepted always count over the whole chain.
    """

    draws: np.ndarray
    burnin: int
    seed: int
    accepted: int
    sampler_tag: str
    runtime_seconds: float = 0.0
    swap_accepted: int | None = None
    swap_attempts: int | None = None
    divergences: int = 0
    first_row: int = 0

    def __post_init__(self):
        self.draws = np.atleast_2d(np.asarray(self.draws, dtype=float))
        if self.first_row < 0:
            raise ValueError("first row must be >= 0")
        if not 0 <= self.burnin < self.iterations:
            raise ValueError("burn-in must be smaller than the chain length")
        if not 0 <= self.accepted <= self.iterations:
            raise ValueError("accepted count cannot exceed the chain length")

    def __len__(self) -> int:
        return self.draws.shape[0]

    @property
    def iterations(self) -> int:
        """Length of the whole chain, rows before first_row included."""
        return self.first_row + len(self)

    @property
    def dim(self) -> int:
        return self.draws.shape[1]

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.iterations

    def post_burnin(self) -> np.ndarray:
        return self.draws[max(self.burnin - self.first_row, 0) :]

    def tail(self, length: int) -> np.ndarray:
        if not 0 < length <= len(self):
            raise ValueError(f"tail length must lie in [1, {len(self)}]")
        return self.draws[-length:]


def format_hms(seconds: float) -> str:
    """Runtime as 'hours:minutes:seconds', e.g. 0:42:54."""
    total = int(seconds)
    return f"{total // 3600}:{total % 3600 // 60:02d}:{total % 60:02d}"


def companion_paths(csv_path) -> tuple[Path, Path]:
    """The metadata sidecar and the binary copy that belong beside a chain CSV."""
    csv_path = Path(csv_path)
    return csv_path.with_suffix(".json"), csv_path.with_suffix(".npy")


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
            rows += int(np.count_nonzero(np.frombuffer(block, np.uint8) == 10))
            crc = zlib.crc32(block, crc)
    return rows, crc


def save_chain(chain: Chain, csv_path, metadata_path=None, config: dict | None = None):
    """Write chain draws as CSV and, optionally, metadata as JSON together
    with the binary copy of the draws beside the CSV.

    Every file is written under a temporary name first and renamed into
    place after all are written, the sidecar last. Any failure, such as
    metadata that cannot be written as JSON, leaves none of them behind.
    The sidecar's ``crc32`` and ``npy_crc32`` are the checksums of the CSV
    and of the binary copy as written.
    """
    meta = chain_metadata(chain, config) if metadata_path is not None else None
    paths = [Path(csv_path)]
    if meta is not None:
        paths += [companion_paths(csv_path)[1], Path(metadata_path)]
    tmps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    placed = []
    try:
        np.savetxt(tmps[0], chain.draws, fmt="%.17g", delimiter=",")
        if meta is not None:
            with open(tmps[1], "wb") as fh:
                np.save(fh, np.ascontiguousarray(chain.draws))
            meta["crc32"] = _scan(tmps[0])[1]
            meta[BINARY_CRC_KEY] = _scan(tmps[1])[1]
            tmps[2].write_text(json.dumps(meta, indent=2, allow_nan=False) + "\n")
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path in tmps + placed:
            path.unlink(missing_ok=True)
        raise


def _check_field(found, meta: dict, key: str, what: str, csv_path, metadata_path):
    if found != meta.get(key):
        raise ChainFileError(
            f"{csv_path} holds {found} {what}; its metadata {metadata_path} records {meta.get(key)}"
        )


#: Header readers of the .npy format versions that np.save writes.
_NPY_HEADERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _npy_header(fh) -> tuple[tuple, bool, np.dtype]:
    """Shape, Fortran-order flag and dtype in the header of the .npy file
    that fh is at the start of; leaves fh at the first byte of the data."""
    version = np.lib.format.read_magic(fh)
    if version not in _NPY_HEADERS:
        raise ValueError(f"unsupported .npy format version {version}")
    return _NPY_HEADERS[version](fh)


def _binary_offset(path: Path, meta: dict, metadata_path) -> int:
    """Where the draws start in a chain's binary copy, after checking its
    CRC-32, then its dtype, order and shape, then its length, against the
    sidecar; the file is read block by block."""
    shape = (meta.get("iterations"), meta.get("dim"))
    with open(path, "rb") as fh:
        try:
            found, fortran, dtype = _npy_header(fh)
        except ValueError as exc:
            problem, found = exc, None
        offset = fh.tell()
        fh.seek(0)
        crc = size = 0
        while block := fh.read(_SCAN_BLOCK):
            crc = zlib.crc32(block, crc)
            size += len(block)
    if crc != meta[BINARY_CRC_KEY]:
        raise ChainFileError(
            f"{path} does not match the CRC-32 its metadata {metadata_path} records"
        )
    if found is None:
        raise ChainFileError(f"{path} is not a readable .npy file: {problem}")
    if found != shape or fortran or dtype != np.float64:
        raise ChainFileError(
            f"{path} holds {dtype} {found} in {'Fortran' if fortran else 'C'} order; its metadata "
            f"{metadata_path} records float64 {shape} in C order"
        )
    if size < offset + shape[0] * shape[1] * 8:
        raise ChainFileError(f"{path} is not a readable .npy file: it ends inside its {found} draws")
    return offset


class ChainRows:
    """Rows draws[start:] of a saved chain (and its metadata sidecar, if
    given), checked when opened and then served in blocks of rows, as often
    as they are iterated; a negative start counts from the end, as in a
    slice.

    With a sidecar, raises ChainFileError unless the CSV has the sidecar's
    ``iterations`` rows of ``dim`` values, e.g. for a truncated CSV, and,
    when the sidecar records a ``crc32``, unless every byte of the CSV
    matches it. When the sidecar also records ``npy_crc32`` and the binary
    copy is beside the CSV, the rows are read from the copy on each pass,
    a block at a time; the copy must match that checksum and hold float64
    draws of shape (iterations, dim) in C order, else ChainFileError.
    Otherwise the CSV is parsed here, once, and served as one block: only a
    verified checksum lets the rows before start go unparsed; without one
    the whole CSV is parsed and sliced.
    """

    def __init__(self, csv_path, metadata_path=None, start: int = 0):
        meta = {}
        if metadata_path is not None:
            meta = json.loads(Path(metadata_path).read_text())
        self.meta = meta
        self._binary = self._parsed = None
        if "crc32" in meta:
            rows, crc = _scan(csv_path)
            _check_field(rows, meta, "iterations", "rows", csv_path, metadata_path)
            if crc != meta["crc32"]:
                raise ChainFileError(
                    f"{csv_path} does not match the CRC-32 its metadata {metadata_path} records"
                )
            first = slice(start, None).indices(rows)[0]
            binary = companion_paths(csv_path)[1]
            if BINARY_CRC_KEY in meta and binary.is_file():
                self._binary = (binary, _binary_offset(binary, meta, metadata_path))
                self.iterations, self.dim = rows, meta["dim"]
            elif first < rows:
                self._parsed = np.loadtxt(csv_path, delimiter=",", ndmin=2, skiprows=first)
            else:
                self._parsed = np.empty((0, meta["dim"]))
        else:
            draws = np.loadtxt(csv_path, delimiter=",", ndmin=2)
            if metadata_path is not None:
                _check_field(len(draws), meta, "iterations", "rows", csv_path, metadata_path)
            first = slice(start, None).indices(len(draws))[0]
            self._parsed = draws[first:]
        if self._parsed is not None:
            self.iterations, self.dim = first + len(self._parsed), self._parsed.shape[1]
        if metadata_path is not None:
            _check_field(self.dim, meta, "dim", "values per row", csv_path, metadata_path)
        self.first = first
        self.sampler_tag = meta.get("sampler", "unknown")

    def __len__(self) -> int:
        return self.iterations - self.first

    def __iter__(self) -> typing.Iterator[np.ndarray]:
        return self.blocks(max(_SCAN_BLOCK // (8 * max(self.dim, 1)), 1))

    def blocks(self, size: int) -> typing.Iterator[np.ndarray]:
        """The rows in fresh (size, dim) arrays, the last one shorter or,
        when there are no rows, empty; a parsed CSV is one block."""
        if self._parsed is not None:
            yield self._parsed
            return
        path, offset = self._binary
        with open(path, "rb") as fh:
            fh.seek(offset + self.first * self.dim * 8)
            for at in range(self.first, self.iterations, size) or (self.first,):
                block = np.empty((min(size, self.iterations - at), self.dim))
                if fh.readinto(block) != block.nbytes:
                    raise ChainFileError(f"{path} was cut short while it was read")
                yield block

    def load(self) -> Chain:
        """The rows as one array in a Chain, with the sidecar's fields."""
        (draws,) = self.blocks(max(len(self), 1))
        meta = self.meta
        return Chain(
            draws,
            burnin=meta.get("burnin", 0),
            seed=meta.get("seed", 0),
            accepted=meta.get("accepted", 0),
            sampler_tag=self.sampler_tag,
            runtime_seconds=meta.get("runtime_seconds", 0.0),
            swap_accepted=meta.get("swap_accepted"),
            swap_attempts=meta.get("swap_attempts"),
            divergences=meta.get("divergences", 0),
            first_row=self.first,
        )


def load_chain(csv_path, metadata_path=None, start: int = 0) -> Chain:
    """Rows draws[start:] of a chain (and its metadata sidecar, if given)
    in a Chain whose first_row is where they start, checked as ChainRows
    checks them."""
    return ChainRows(csv_path, metadata_path, start).load()

