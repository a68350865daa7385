"""Chain persistence: the ``Chain`` container, one headerless CSV per chain
(17 significant digits, one iteration per row), a JSON metadata sidecar and,
beside both, an exact binary copy of the draws.

A ChainWriter writes a chain's files while its rows arrive, a block at a
time, and takes each file's CRC-32 as it writes; ``save_chain`` is one such
write, with the chain as one block, and ``stream_chains`` gives a sampler
one writer per chain as its sink. Each file is written to a temporary name
in its directory, and the files are renamed into place only once all of
them are written, the sidecar last, so a chain's files are complete or
absent and a sidecar vouches for files that are all there. The sidecar
records the chain's shape, a CRC-32 of the CSV bytes (``crc32``) and a
CRC-32 of the binary copy (``npy_crc32``), a float64 C-order ``.npy`` file
of shape ``(iterations, dim)``. ChainRows checks a chain's files against its
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
    """The sidecar fields of a chain, apart from its files' checksums. An
    HMC chain records its divergences, 0 included; another chain records
    them only when it has some."""
    meta = {
        "sampler": chain.sampler_tag,
        "seed": chain.seed,
        "burnin": chain.burnin,
        "accepted": chain.accepted,
        "runtime_seconds": chain.runtime_seconds,
        "runtime_hms": format_hms(chain.runtime_seconds),
        "iterations": chain.iterations,
        "dim": chain.dim,
        "config": config or {},
    }
    if chain.swap_attempts is not None:
        meta["swap_accepted"] = chain.swap_accepted
        meta["swap_attempts"] = chain.swap_attempts
    if chain.divergences or chain.sampler_tag == "HMC":
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


class _CrcFile:
    """A file opened for writing, with the running CRC-32 of every byte
    written to it."""

    def __init__(self, path: Path):
        self.path, self.crc = path, 0
        self._fh = open(path, "wb")

    def write(self, data):
        self.crc = zlib.crc32(data, self.crc)
        self._fh.write(data)

    def close(self):
        self._fh.close()


def _temporary(path: Path, pid: int) -> Path:
    """The name under which the ChainWriter of process pid writes path."""
    return path.with_name(f".{path.name}.{pid}.tmp")


class ChainWriter:
    """One chain's files, written while its rows arrive, a block at a time.

    Each call appends a (k, dim) block of rows to the temporary CSV, in the
    bytes of ``np.savetxt(fmt="%.17g", delimiter=",")``, formatted a row
    at a time, and, given a sidecar path, to the temporary binary copy,
    whose ``np.save`` header it writes before the first row, from
    ``iterations`` and the block's width. It keeps a running CRC-32 of each
    file. ``close(chain, config)`` checks that the chain's iterations rows
    of its width were written, writes the sidecar with the chain's fields
    and both checksums, and renames the CSV, the binary copy, then the
    sidecar into place. ``discard()`` deletes what was written and not yet
    closed; used in a ``with`` statement, the writer discards on any
    exception. So the files are complete or absent.
    """

    def __init__(self, csv_path, metadata_path, iterations: int):
        self._paths = [Path(csv_path)]
        if metadata_path is not None:
            self._paths += [companion_paths(csv_path)[1], Path(metadata_path)]
        self._tmps = [_temporary(path, os.getpid()) for path in self._paths]
        self._placed: list[Path] = []
        self.iterations, self.rows, self.dim = iterations, 0, None
        self._files: list[_CrcFile] = []
        try:
            for tmp in self._tmps[:2]:
                self._files.append(_CrcFile(tmp))
        except BaseException:
            self.discard()
            raise

    def __enter__(self) -> ChainWriter:
        return self

    def __exit__(self, kind, value, traceback):
        if kind is not None:
            self.discard()

    def __call__(self, block):
        block = np.ascontiguousarray(block, dtype=np.float64)
        if self.dim is None:
            self.dim = block.shape[1]
            self._fmt = ",".join(["%.17g"] * self.dim) + "\n"
            if len(self._files) > 1:
                header = {"descr": np.lib.format.dtype_to_descr(block.dtype), "fortran_order": False,
                          "shape": (int(self.iterations), int(self.dim))}
                np.lib.format.write_array_header_1_0(self._files[1], header)
        if block.shape[1] != self.dim or self.rows + len(block) > self.iterations:
            raise ValueError(f"a block of {block.shape} does not fit the {self.rows} rows of "
                             f"{self.dim} values written of a chain of {self.iterations}")
        csv = self._files[0]
        for row in block:
            csv.write((self._fmt % tuple(row.tolist())).encode())
        if len(self._files) > 1:
            self._files[1].write(memoryview(block).cast("B"))
        self.rows += len(block)

    def close(self, chain: Chain, config: dict | None = None):
        """Write the sidecar of chain and rename every file into place."""
        if self.rows != self.iterations or (chain.iterations, chain.dim) != (self.iterations, self.dim):
            raise ValueError(f"{self.rows} rows of {self.dim} values were written of a chain of "
                             f"{self.iterations}, for a chain of {chain.iterations} x {chain.dim}")
        meta = chain_metadata(chain, config)
        for fh in self._files:
            fh.close()
        if len(self._files) > 1:
            meta["crc32"], meta[BINARY_CRC_KEY] = (written.crc for written in self._files)
            self._tmps[2].write_text(json.dumps(meta, indent=2, allow_nan=False) + "\n")
        for tmp, path in zip(self._tmps, self._paths):
            os.replace(tmp, path)
            self._placed.append(path)
        self._tmps, self._placed = [], []

    def discard(self):
        """Delete every file written and not yet closed."""
        for fh in self._files:
            fh.close()
        for path in self._tmps + self._placed:
            path.unlink(missing_ok=True)


def discard_dead_writer(csv_path, metadata_path, pid: int):
    """Delete what the ChainWriter of a chain left when its process pid
    ended without placing the chain: the temporary files and, if it ended
    renaming them into place (the sidecar, renamed last, is still
    temporary), the placed ones."""
    paths = [Path(csv_path), companion_paths(csv_path)[1], Path(metadata_path)]
    placing = _temporary(paths[-1], pid).exists()
    for path in paths:
        _temporary(path, pid).unlink(missing_ok=True)
        if placing:
            path.unlink(missing_ok=True)


def stream_chains(paths, iterations: int, run, config: dict | None = None) -> list[Chain]:
    """The chains of run(sink), a sampler group of len(paths) chains of
    iterations rows that hands chain i's blocks of rows to sink[i], each
    written as it comes into the files of paths[i], a (CSV, sidecar) pair,
    by a ChainWriter that the chain closes. When a writer cannot open its
    files, or run or a close raises, no chain that was not closed leaves a
    file."""
    writers = []
    try:
        for csv_path, meta_path in paths:
            writers.append(ChainWriter(csv_path, meta_path, iterations))
        chains = run(sink=writers)
        for writer, chain in zip(writers, chains, strict=True):
            writer.close(chain, config)
    except BaseException:
        for writer in writers:
            writer.discard()
        raise
    return chains


def save_chain(chain: Chain, csv_path, metadata_path=None, config: dict | None = None):
    """Write chain draws as CSV and, optionally, metadata as JSON together
    with the binary copy of the draws beside the CSV: one ChainWriter, given
    the chain as one block.

    Every file is written under a temporary name first and renamed into
    place after all are written, the sidecar last. Any failure, such as
    metadata that cannot be written as JSON, leaves none of them behind.
    The sidecar's ``crc32`` and ``npy_crc32`` are the checksums of the CSV
    and of the binary copy as written.
    """
    if chain.first_row:
        raise ValueError("a partially loaded chain cannot be saved")
    with ChainWriter(csv_path, metadata_path, len(chain)) as writer:
        writer(chain.draws)
        writer.close(chain, config)


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

