"""Chain persistence, the one module that reads and writes chain files: the
``Chain`` container and, per chain, a headerless CSV (17 significant
digits, one iteration per row), an exact float64 C-order ``.npy`` copy of
the draws and a JSON metadata sidecar, which ``Sidecar`` describes and
``read_metadata`` reads under ``schema``'s JSON type rule.

A ChainWriter writes a chain's three files while its rows arrive, a block
at a time, taking the CSV's and the copy's CRC-32 as it writes
(``save_chain`` is one such write; ``stream_chains`` gives a sampler one
writer per chain as its sink), and renames them into place once all are
written, the sidecar last, so they are complete or absent. ChainRows reads
a chain in one of two ways: with a sidecar, which must be current, it
checks the CSV and the copy against it before it serves rows from the
copy, block by block; without one, as for a chain another tool wrote, it
parses the whole CSV.
"""

from __future__ import annotations

import json
import os
import typing
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .schema import ConfigError, from_section, json_file

#: Bytes read at a time while checksumming a chain file, so a file is never
#: held in memory whole. Blocks of 1 MiB, which hold a whole 350 kB hawks
#: chain, raised the peak RSS of `sample` by 0.2 MB and scanned no faster.
_SCAN_BLOCK = 1 << 16


class ChainFileError(ValueError):
    """A chain CSV or its binary copy does not match the shape or checksum
    its metadata sidecar records, or the sidecar is not a current one."""


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


@dataclass(frozen=True, kw_only=True)
class Sidecar:
    """The metadata sidecar of a chain, its fields in the order of the
    file's keys. ``text()`` writes ``swap_accepted`` and ``swap_attempts``
    only when the chain has them (PP), and ``divergences`` for an HMC
    chain, 0 included, and for another chain only when it has some."""

    sampler: str
    seed: int
    burnin: int
    accepted: int
    runtime_seconds: float
    runtime_hms: str
    iterations: int
    dim: int
    config: dict
    swap_accepted: int | None = None
    swap_attempts: int | None = None
    divergences: int = 0
    crc32: int
    npy_crc32: int

    def __post_init__(self):
        if self.iterations < 1 or self.dim < 1:
            raise ValueError(f"iterations ({self.iterations}) and dim ({self.dim}) must be >= 1")
        if not 0 <= self.burnin < self.iterations:
            raise ValueError(f"burnin ({self.burnin}) must satisfy 0 <= burnin < iterations")
        if not 0 <= self.accepted <= self.iterations:
            raise ValueError(f"accepted ({self.accepted}) must satisfy 0 <= accepted <= iterations")

    @classmethod
    def of(cls, chain: Chain, config: dict | None, crc32: int, npy_crc32: int) -> Sidecar:
        """The sidecar of chain, sampled under config, with its files' CRC-32s."""
        return cls(
            sampler=chain.sampler_tag, seed=chain.seed, burnin=chain.burnin, accepted=chain.accepted,
            runtime_seconds=chain.runtime_seconds, runtime_hms=format_hms(chain.runtime_seconds),
            iterations=chain.iterations, dim=chain.dim, config=config or {},
            swap_accepted=chain.swap_accepted, swap_attempts=chain.swap_attempts,
            divergences=chain.divergences, crc32=crc32, npy_crc32=npy_crc32,
        )

    def text(self) -> str:
        """The sidecar file's text."""
        doc = asdict(self)
        if self.swap_attempts is None:
            del doc["swap_accepted"], doc["swap_attempts"]
        if not self.divergences and self.sampler != "HMC":
            del doc["divergences"]
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"


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
    bytes of ``np.savetxt(fmt="%.17g", delimiter=",")``, and to the
    temporary binary copy, after its ``np.save`` header of version 1.0,
    keeping a running CRC-32 of each. ``close(chain, config)`` checks that
    all of the chain's rows were written, writes its Sidecar and renames the
    CSV, the copy, then the sidecar into place. ``discard()`` deletes what
    was not yet placed, as a ``with`` block does on any exception.
    """

    def __init__(self, csv_path, metadata_path, iterations: int):
        self._paths = [Path(csv_path), companion_paths(csv_path)[1], Path(metadata_path)]
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
            header = {"descr": np.lib.format.dtype_to_descr(block.dtype), "fortran_order": False,
                      "shape": (int(self.iterations), int(self.dim))}
            np.lib.format.write_array_header_1_0(self._files[1], header)
        if block.shape[1] != self.dim or self.rows + len(block) > self.iterations:
            raise ValueError(f"a block of {block.shape} does not fit the {self.rows} rows of "
                             f"{self.dim} values written of a chain of {self.iterations}")
        csv, binary = self._files
        for row in block:
            csv.write((self._fmt % tuple(row.tolist())).encode())
        binary.write(memoryview(block).cast("B"))
        self.rows += len(block)

    def close(self, chain: Chain, config: dict | None = None):
        """Write the sidecar of chain and rename every file into place."""
        if self.rows != self.iterations or (chain.iterations, chain.dim) != (self.iterations, self.dim):
            raise ValueError(f"{self.rows} rows of {self.dim} values were written of a chain of "
                             f"{self.iterations}, for a chain of {chain.iterations} x {chain.dim}")
        for fh in self._files:
            fh.close()
        self._tmps[2].write_text(Sidecar.of(chain, config, *(written.crc for written in self._files)).text())
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


def save_chain(chain: Chain, csv_path, metadata_path, config: dict | None = None):
    """Write chain's CSV, binary copy and sidecar through one ChainWriter,
    given the chain as one block; any failure, such as metadata that cannot
    be written as JSON, leaves none of them behind."""
    if chain.first_row:
        raise ValueError("a partially loaded chain cannot be saved")
    with ChainWriter(csv_path, metadata_path, len(chain)) as writer:
        writer(chain.draws)
        writer.close(chain, config)


def read_metadata(path) -> Sidecar:
    """The chain metadata sidecar at path, built under the JSON type rule;
    ChainFileError if the file is not valid JSON or not an object, lacks a
    key or has an unknown one, or holds a value of the wrong type or out of
    range."""
    try:
        doc = json_file("metadata", path)
    except ConfigError as exc:
        raise ChainFileError(str(exc)) from None
    try:
        return from_section(Sidecar, "metadata", doc)
    except ConfigError as exc:
        raise ChainFileError(f"{path}: {exc}") from None


def _binary_offset(path: Path, meta: Sidecar, metadata_path) -> int:
    """Where the draws start in a chain's binary copy, after checking that
    it is there, then its CRC-32, then its dtype, order and shape, then its
    length, against the sidecar; the file is read block by block."""
    if not path.is_file():
        raise ChainFileError(f"{path}, the binary copy its metadata {metadata_path} records, is missing")
    shape = (meta.iterations, meta.dim)
    with open(path, "rb") as fh:
        try:  # a ChainWriter writes header version 1.0 alone
            if (version := np.lib.format.read_magic(fh)) != (1, 0):
                raise ValueError(f"unsupported .npy format version {version}")
            found, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        except ValueError as exc:
            problem, found = exc, None
        offset = fh.tell()
        fh.seek(0)
        crc = size = 0
        while block := fh.read(_SCAN_BLOCK):
            crc = zlib.crc32(block, crc)
            size += len(block)
    if crc != meta.npy_crc32:
        raise ChainFileError(f"{path} does not match the CRC-32 its metadata {metadata_path} records")
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
    """Rows draws[start:] of a saved chain, checked when opened and then
    served in blocks of rows, as often as they are iterated; a negative
    start counts from the end, as in a slice.

    With a metadata sidecar, read by read_metadata, raises ChainFileError
    unless the CSV has the sidecar's ``iterations`` rows and every byte of
    it matches ``crc32``, and unless the binary copy beside it matches
    ``npy_crc32`` and holds float64 draws of shape (iterations, dim) in C
    order; the rows are then read from the copy on each pass, a block at a
    time. Without a sidecar, as for a chain another tool wrote, the whole
    CSV is parsed here, once, sliced and served as one block.
    """

    def __init__(self, csv_path, metadata_path=None, start: int = 0):
        self.meta = meta = None if metadata_path is None else read_metadata(metadata_path)
        self._binary = self._parsed = None
        if meta is None:
            draws = np.loadtxt(csv_path, delimiter=",", ndmin=2)
            self.iterations, self.dim = draws.shape
            self.first = slice(start, None).indices(len(draws))[0]
            self._parsed = draws[self.first :]
        else:
            rows, crc = _scan(csv_path)
            if rows != meta.iterations:
                raise ChainFileError(f"{csv_path} holds {rows} rows; its metadata {metadata_path} "
                                     f"records {meta.iterations}")
            if crc != meta.crc32:
                raise ChainFileError(f"{csv_path} does not match the CRC-32 its metadata "
                                     f"{metadata_path} records")
            binary = companion_paths(csv_path)[1]
            self._binary = (binary, _binary_offset(binary, meta, metadata_path))
            self.iterations, self.dim = rows, meta.dim
            self.first = slice(start, None).indices(rows)[0]
        self.sampler_tag = "unknown" if meta is None else meta.sampler
        self.burnin = 0 if meta is None else meta.burnin

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
        """The rows as one array in a Chain, with the sidecar's fields; a
        chain without one records burn-in, seed and accepts of 0."""
        (draws,) = self.blocks(max(len(self), 1))
        meta = self.meta
        if meta is None:
            return Chain(draws, burnin=0, seed=0, accepted=0, sampler_tag="unknown", first_row=self.first)
        return Chain(draws, burnin=meta.burnin, seed=meta.seed, accepted=meta.accepted,
                     sampler_tag=meta.sampler, runtime_seconds=meta.runtime_seconds,
                     swap_accepted=meta.swap_accepted, swap_attempts=meta.swap_attempts,
                     divergences=meta.divergences, first_row=self.first)


def load_chain(csv_path, metadata_path=None, start: int = 0) -> Chain:
    """Rows draws[start:] of a chain (and its metadata sidecar, if given)
    in a Chain whose first_row is where they start, checked as ChainRows
    checks them."""
    return ChainRows(csv_path, metadata_path, start).load()

