import functools
import hashlib
import io
import json
import os
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from damaged_chains import DAMAGE, damage_binary
from toy_targets import ToyTarget

from bayesmlp import chainio
from bayesmlp.chainio import (
    ChainFileError,
    ChainRows,
    ChainWriter,
    Sidecar,
    companion_paths,
    format_hms,
    load_chain,
    read_metadata,
    save_chain,
    stream_chains,
)
from bayesmlp.data import NoisyXorConfig, generate_noisy_xor, load_vendored
from bayesmlp.mlp import Architecture
from bayesmlp.samplers import (
    BLOCK_BYTES,
    Chain,
    HmcConfig,
    MhConfig,
    PpConfig,
    mh_chain,
    run_posterior_chain,
    run_posterior_chains,
)


@pytest.fixture
def chain(rng):
    return Chain(
        rng.normal(size=(40, 3)),
        burnin=10,
        seed=77,
        accepted=25,
        sampler_tag="MH",
        runtime_seconds=154.2,
    )


class TestPersistence:
    def test_round_trip_exact(self, tmp_path, chain):
        csv_path = tmp_path / "c.csv"
        meta_path = tmp_path / "c.json"
        save_chain(chain, csv_path, meta_path, config={"proposal_variance": 0.02})
        back = load_chain(csv_path, meta_path)
        np.testing.assert_array_equal(back.draws, chain.draws)
        assert json.loads(meta_path.read_text())["crc32"] == zlib.crc32(csv_path.read_bytes())
        assert back.burnin == 10
        assert back.seed == 77
        assert back.accepted == 25
        assert back.sampler_tag == "MH"

    def test_csv_format(self, tmp_path, chain):
        csv_path = tmp_path / "c.csv"
        save_chain(chain, csv_path, tmp_path / "c.json")
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 40
        assert all(len(line.split(",")) == 3 for line in lines)
        assert "e" in lines[0] or "." in lines[0]

    def test_metadata_fields(self, chain):
        meta = Sidecar.of(chain, {"kind": "MH"}, 1, 2)
        assert meta.sampler == "MH"
        assert meta.runtime_hms == "0:02:34"
        assert meta.config == {"kind": "MH"}
        assert (meta.iterations, meta.dim, meta.crc32, meta.npy_crc32) == (40, 3, 1, 2)

    def test_pp_metadata_includes_swaps(self, rng):
        chain = Chain(
            rng.normal(size=(10, 2)), burnin=0, seed=0, accepted=5,
            sampler_tag="PP", swap_accepted=4, swap_attempts=10,
        )
        meta = json.loads(Sidecar.of(chain, None, 0, 0).text())
        assert meta["swap_accepted"] == 4
        assert meta["swap_attempts"] == 10

    def test_single_row_chain_stays_2d(self, tmp_path):
        chain = Chain(np.ones((1, 4)), burnin=0, seed=0, accepted=1, sampler_tag="MH")
        path = tmp_path / "one.csv"
        save_chain(chain, path, path.with_suffix(".json"))
        assert load_chain(path).draws.shape == (1, 4)


@st.composite
def chains_and_starts(draw):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    values = arrays(np.float64, (rows, cols), elements=st.floats(allow_nan=False, allow_infinity=False))
    chain = Chain(
        draw(values), burnin=draw(st.integers(0, rows - 1)), seed=draw(st.integers(0, 99)),
        accepted=draw(st.integers(0, rows)), sampler_tag="MH",
    )
    return chain, draw(st.integers(-rows - 2, rows + 2))


class TestPartialLoad:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(chains_and_starts(), st.sampled_from(["no sidecar", "binary", "binary deleted", "no binary key"]))
    def test_round_trip_from_any_start(self, tmp_path, case, layout):
        """Rows from the binary copy, or parsed from a CSV without a sidecar,
        are the saved draws bit for bit; a sidecar whose copy is gone, or
        that lacks the copy's checksum, rejects the chain."""
        chain, start = case
        sidecar = layout != "no sidecar"
        csv_path = tmp_path / "c.csv"
        meta_path = tmp_path / "c.json" if sidecar else None
        if sidecar:
            save_chain(chain, csv_path, meta_path)
        else:
            np.savetxt(csv_path, chain.draws, fmt="%.17g", delimiter=",")
        if layout == "binary deleted":
            (tmp_path / "c.npy").unlink()
        elif layout == "no binary key":
            meta = json.loads(meta_path.read_text())
            del meta["npy_crc32"]
            meta_path.write_text(json.dumps(meta))
        if layout in ("binary deleted", "no binary key"):
            with pytest.raises(ChainFileError, match="c.npy|npy_crc32"):
                load_chain(csv_path, meta_path, start=start)
            return
        back = load_chain(csv_path, meta_path, start=start)
        want = chain.draws[start:]
        assert back.draws.shape == want.shape
        np.testing.assert_array_equal(back.draws.view(np.uint64), want.view(np.uint64))
        assert back.first_row == len(chain) - len(want)
        if sidecar:
            assert (back.burnin, back.accepted, back.iterations) == (chain.burnin, chain.accepted, len(chain))

    def test_edit_in_skipped_rows_rejected(self, tmp_path, chain):
        csv_path, meta_path = tmp_path / "c.csv", tmp_path / "c.json"
        save_chain(chain, csv_path, meta_path)
        text = bytearray(csv_path.read_bytes())
        at = text.index(b"\n", text.index(b"\n") + 1) - 1  # last digit of row 1
        text[at] = ord("7") if text[at] != ord("7") else ord("3")
        csv_path.write_bytes(bytes(text))
        with pytest.raises(ChainFileError, match="CRC-32"):
            load_chain(csv_path, meta_path, start=-10)

    def test_sidecar_without_checksum_rejected(self, tmp_path, chain):
        """A sidecar without the CSV's checksum is not current: the chain is
        rejected, not parsed from its CSV."""
        csv_path, meta_path = tmp_path / "c.csv", tmp_path / "c.json"
        save_chain(chain, csv_path, meta_path)
        meta = json.loads(meta_path.read_text())
        del meta["crc32"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ChainFileError, match=r"missing metadata fields: \['crc32'\]"):
            load_chain(csv_path, meta_path, start=-10)

    def test_partial_chain_cannot_be_saved(self, tmp_path, chain):
        save_chain(chain, tmp_path / "c.csv", tmp_path / "c.json")
        tail = load_chain(tmp_path / "c.csv", tmp_path / "c.json", start=-5)
        with pytest.raises(ValueError):
            save_chain(tail, tmp_path / "t.csv", tmp_path / "t.json")
        assert sorted(os.listdir(tmp_path)) == ["c.csv", "c.json", "c.npy"]


def half_write_of(prefix):
    """A _CrcFile.write that, on the file whose name starts with prefix,
    writes half of the bytes it is given and then fails, as on a full disk."""
    real_write = chainio._CrcFile.write

    def write(self, data):
        if self.path.name.startswith(prefix):
            real_write(self, bytes(data)[: len(data) // 2])
            raise OSError("disk full")
        real_write(self, data)

    return write


class TestCompleteOrAbsent:
    def test_truncated_csv_rejected(self, tmp_path, chain):
        csv_path, meta_path = tmp_path / "c.csv", tmp_path / "c.json"
        save_chain(chain, csv_path, meta_path)
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:25]))  # cut at a row boundary
        with pytest.raises(ChainFileError, match="25 rows"):
            load_chain(csv_path, meta_path)
        assert load_chain(csv_path).draws.shape == (25, 3)  # no sidecar, no check

    def test_no_temporary_files_left(self, tmp_path, chain):
        save_chain(chain, tmp_path / "c.csv", tmp_path / "c.json")
        save_chain(chain, tmp_path / "c.csv", tmp_path / "c.json")  # replaces in place
        assert sorted(os.listdir(tmp_path)) == ["c.csv", "c.json", "c.npy"]

    def test_failed_write_leaves_nothing(self, tmp_path, chain, monkeypatch):
        monkeypatch.setattr(chainio._CrcFile, "write", half_write_of(".c.csv."))
        with pytest.raises(OSError):
            save_chain(chain, tmp_path / "c.csv", tmp_path / "c.json")
        assert os.listdir(tmp_path) == []

    def test_unserializable_metadata_writes_nothing(self, tmp_path, chain):
        with pytest.raises(ValueError):
            save_chain(chain, tmp_path / "c.csv", tmp_path / "c.json", config={"c": float("nan")})
        assert os.listdir(tmp_path) == []


class TestBinaryCopy:
    def test_sidecar_records_exact_copy(self, tmp_path, chain):
        csv_path, meta_path = tmp_path / "c.csv", tmp_path / "c.json"
        save_chain(chain, csv_path, meta_path)
        assert companion_paths(csv_path) == (meta_path, tmp_path / "c.npy")
        binary = tmp_path / "c.npy"
        assert json.loads(meta_path.read_text())["npy_crc32"] == zlib.crc32(binary.read_bytes())
        stored = np.load(binary)
        assert stored.dtype == np.float64 and stored.flags.c_contiguous
        np.testing.assert_array_equal(stored.view(np.uint64), chain.draws.view(np.uint64))

    def test_load_parses_no_text(self, tmp_path, chain, monkeypatch):
        csv_path, meta_path = tmp_path / "c.csv", tmp_path / "c.json"
        save_chain(chain, csv_path, meta_path)

        def no_parsing(*args, **kwargs):
            raise AssertionError("the CSV was parsed")

        monkeypatch.setattr(np, "loadtxt", no_parsing)
        back = load_chain(csv_path, meta_path, start=-10)
        np.testing.assert_array_equal(back.draws, chain.draws[-10:])
        assert back.first_row == 30

    @pytest.mark.parametrize("how", DAMAGE)
    def test_damaged_copy_rejected(self, tmp_path, chain, how):
        """A copy that does not match its sidecar is an error, never a
        reason to fall back to the CSV."""
        csv_path, meta_path = tmp_path / "c.csv", tmp_path / "c.json"
        save_chain(chain, csv_path, meta_path)
        damage_binary(csv_path, how)
        with pytest.raises(ChainFileError, match="c.npy"):
            load_chain(csv_path, meta_path, start=-10)

    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("start", [0, 13, -5, 40, 55])
    def test_rows_served_in_blocks_on_every_pass(self, tmp_path, chain, binary, start):
        """ChainRows serves rows [start:] in blocks of the asked size, from
        the copy or, for a CSV without a sidecar, as the one block of the
        parsed CSV, on every pass; with no rows left it serves one empty
        block."""
        csv_path, meta_path = tmp_path / "c.csv", tmp_path / "c.json"
        if binary:
            save_chain(chain, csv_path, meta_path)
        else:
            np.savetxt(csv_path, chain.draws, fmt="%.17g", delimiter=",")
        rows = ChainRows(csv_path, meta_path if binary else None, start=start)
        want = chain.draws[start:]
        tag = "MH" if binary else "unknown"
        assert (len(rows), rows.first, rows.sampler_tag) == (len(want), len(chain) - len(want), tag)
        for size in (1, 6, 100):
            for _ in range(2):
                blocks = list(rows.blocks(size))
                lengths = [len(block) for block in blocks]
                cuts = [min(size, len(want) - at) for at in range(0, len(want), size)] or [0]
                assert lengths == (cuts if binary else [len(want)])
                np.testing.assert_array_equal(np.concatenate(blocks).view(np.uint64), want.view(np.uint64))
        assert sum(len(block) for block in rows) == len(want)

    def test_copy_cut_after_its_check_rejected(self, tmp_path, chain):
        """A copy that passed its checks and is cut short before its rows
        are read is an error, not a short chain."""
        csv_path, meta_path = tmp_path / "c.csv", tmp_path / "c.json"
        save_chain(chain, csv_path, meta_path)
        rows = ChainRows(csv_path, meta_path, start=10)
        binary = tmp_path / "c.npy"
        binary.write_bytes(binary.read_bytes()[:-8])
        with pytest.raises(ChainFileError, match="cut short"):
            list(rows.blocks(7))

    def test_failed_copy_write_leaves_nothing(self, tmp_path, chain, monkeypatch):
        monkeypatch.setattr(chainio._CrcFile, "write", half_write_of(".c.npy."))
        with pytest.raises(OSError):
            save_chain(chain, tmp_path / "c.csv", tmp_path / "c.json")
        assert os.listdir(tmp_path) == []

    def test_failed_sidecar_rename_leaves_nothing(self, tmp_path, chain, monkeypatch):
        """The sidecar is renamed last; when that fails, the CSV and copy
        already in place are removed too."""
        renamed = []
        real_replace = os.replace

        def replace(src, dst):
            if str(dst).endswith(".json"):
                raise OSError("rename failed")
            real_replace(src, dst)
            renamed.append(os.path.basename(dst))

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            save_chain(chain, tmp_path / "c.csv", tmp_path / "c.json")
        assert renamed == ["c.csv", "c.npy"]
        assert os.listdir(tmp_path) == []


class TestChainWriter:
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_streamed_bytes_equal_savetxt_and_save(self, tmp_path, rng, dim, block):
        """Blocks of 1 and 7 rows, and one block longer than the chain, give
        the bytes of np.savetxt and np.save of the whole chain, and the
        sidecar records the CRC-32 of those bytes."""
        draws = rng.standard_normal((40, dim)) * 10.0 ** rng.integers(-300, 300, (40, dim))
        draws[0, 0], draws[1, 0] = -0.0, 5e-324
        csv_path, meta_path = tmp_path / "c.csv", tmp_path / "c.json"
        with ChainWriter(csv_path, meta_path, len(draws)) as writer:
            for at in range(0, len(draws), block):
                writer(draws[at : at + block])
            writer.close(Chain(draws, burnin=0, seed=0, accepted=0, sampler_tag="MH"))
        np.savetxt(tmp_path / "ref.csv", draws, fmt="%.17g", delimiter=",")
        binary = io.BytesIO()
        np.save(binary, draws)
        assert csv_path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "c.npy").read_bytes() == binary.getvalue()
        meta = json.loads(meta_path.read_text())
        assert meta["crc32"] == zlib.crc32(csv_path.read_bytes())
        assert meta["npy_crc32"] == zlib.crc32(binary.getvalue())

    @pytest.mark.parametrize("rows,dim", [(39, 3), (41, 3), (40, 2)])
    def test_rows_that_do_not_fit_the_chain_leave_nothing(self, tmp_path, chain, rows, dim):
        """Too few rows, too many, or rows of another width than the chain's
        are refused, and no file is left."""
        with pytest.raises(ValueError):
            with ChainWriter(tmp_path / "c.csv", tmp_path / "c.json", 40) as writer:
                writer(np.zeros((rows, dim)))
                writer.close(chain)
        assert os.listdir(tmp_path) == []

    def test_group_that_fails_after_a_block_leaves_nothing(self, tmp_path):
        """Two chains stream into their files; the target raises once a first
        block of each has been written, and neither chain leaves a file,
        temporary or not."""
        written = []  # one row per chain and iteration; a block is 2048 iterations

        def log_likelihood(theta):
            if len(written) > 2 * (BLOCK_BYTES // (8 * 2 * 2) + 5):
                assert sorted(p.name.split(".")[1:3] for p in tmp_path.iterdir()) == [
                    ["c0", "csv"], ["c0", "npy"], ["c1", "csv"], ["c1", "npy"]]
                assert all(p.stat().st_size > 0 for p in tmp_path.iterdir())
                raise RuntimeError("target failed")
            written.append(theta)
            return -0.5 * float(theta @ theta)

        target = ToyTarget(log_likelihood, 2)
        paths = [(tmp_path / f"c{i}.csv", tmp_path / f"c{i}.json") for i in range(2)]
        run = functools.partial(mh_chain, target, np.zeros((2, 2)), MhConfig(0.5), 10000, [1, 2])
        with pytest.raises(RuntimeError, match="target failed"):
            stream_chains(paths, 10000, run)
        assert os.listdir(tmp_path) == []

    def test_group_whose_files_cannot_open_leaves_nothing(self, tmp_path):
        """The second chain's directory is missing: the first chain's
        temporary files, already open, are deleted too, and nothing runs."""
        paths = [(tmp_path / "c0.csv", tmp_path / "c0.json"),
                 (tmp_path / "missing" / "c1.csv", tmp_path / "missing" / "c1.json")]
        with pytest.raises(FileNotFoundError):
            stream_chains(paths, 10, lambda sink: pytest.fail("the group ran"))
        assert os.listdir(tmp_path) == []

    def test_streamed_group_writes_the_chains_in_memory(self, tmp_path):
        """sample's write path: each chain streamed into its files has the
        bytes and the sidecar that save_chain gives the same chain held in
        memory, apart from the wall time."""
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=5, test_per_corner=1, seed=0))
        args = (Architecture((2, 2, 1)), train, 10.0, HmcConfig(3, 0.05), 700, [1, 2])
        paths = [(tmp_path / f"s{i}.csv", tmp_path / f"s{i}.json") for i in range(2)]
        streamed = stream_chains(paths, 700, functools.partial(run_posterior_chains, *args, burnin=50),
                                 config={"k": 1})
        assert all(len(chain) == 0 and chain.iterations == 700 for chain in streamed)
        for i, chain in enumerate(run_posterior_chains(*args, burnin=50)):
            save_chain(chain, tmp_path / f"k{i}.csv", tmp_path / f"k{i}.json", config={"k": 1})
            for suffix in (".csv", ".npy"):
                assert (tmp_path / f"s{i}{suffix}").read_bytes() == (tmp_path / f"k{i}{suffix}").read_bytes()
            metas = [json.loads((tmp_path / f"{kind}{i}.json").read_text()) for kind in "sk"]
            for meta in metas:
                del meta["runtime_seconds"], meta["runtime_hms"]
            assert metas[0] == metas[1]

    def test_file_sink_peak_flat_in_chain_length(self, tmp_path):
        """With the files as its sink, a sampling run holds one block of
        draws: its allocation peak at 20000 iterations is within a block
        of that at 2000 (holding the draws would add 1.3 MB)."""
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=5, test_per_corner=1, seed=0))

        def peak(iterations):
            paths = [(tmp_path / f"c{iterations}.csv", tmp_path / f"c{iterations}.json")]
            run = functools.partial(run_posterior_chains, Architecture((2, 2, 1)), train, 10.0,
                                    MhConfig(1e-4), iterations, [3])
            tracemalloc.start()
            try:
                stream_chains(paths, iterations, run)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(300)  # warm-up: first-call allocations are not the chain's
        assert abs(peak(20000) - peak(2000)) < BLOCK_BYTES


class TestHms:
    def test_format(self):
        assert format_hms(0) == "0:00:00"
        assert format_hms(2574) == "0:42:54"
        assert format_hms(4248) == "1:10:48"


#: SHA-256 of chain CSVs: (architecture, dataset, sampler, iterations, seed, digest).
#: MH and PP draws move only when an accept decision flips; the HMC state
#: carries every gradient bit through its leapfrog steps, so those pins also
#: fix the floating-point path of the forward pass and backprop. The penguins
#: HMC chain accepts every move; the hawks chain at seed 3 stalls (all 60
#: iterations divergent), so it pins the gradient carried across rejections.
#: The hawks chain at seed 2 starts with clamped rows, whose zero gradient
#: it pins: 43 accepts and no divergence (1 accept and 10 divergences while
#: clamped rows kept their residual gradient). The hawks MH and PP pins (187
#: of 300 accepted; 32 within-chain accepts and 7 swaps) cover the
#: Metropolis step on the multiclass likelihood. The HMC and HMC-hawks-2
#: digests were re-taken when the posterior moved to a feature-major pass and
#: backprop: both chains keep every accept decision (40 of 40, 43 of 60) and
#: their draws moved by at most 3.5e-13 and 1.1e-11 relative. HMC-hawks-3 never
#: accepts, so its draws are its init and did not move.
CHAIN_PINS = {
    "MH": ((2, 2, 1), "xor", MhConfig(0.05), 300, 7,
           "71ee4f615826740941474549dba25303e7137f257f1b8907ccf89152a2ae31d5"),
    "HMC": ((6, 2, 2, 3), "penguins", HmcConfig(5, 0.05), 40, 7,
            "18263578e8b01ff63b6c7c24aa1e72a9ea371e2fa4f0da3c08db2e51828aaaa5"),
    "PP": ((2, 2, 1), "xor", PpConfig((0.1, 0.5, 1.0), beta=0.5, proposal_variance=0.05), 60, 7,
           "398bc771819d6ed4e3605efeeef0498a6920d1140039924d7853649166bc62fb"),
    "HMC-hawks-3": ((6, 2, 2, 3), "hawks", HmcConfig(5, 0.1), 60, 3,
                    "cf5ac3bd0816b4be6b336c97078ab3affaac31fd06dd73994a675e078d901762"),
    "HMC-hawks-2": ((6, 2, 2, 3), "hawks", HmcConfig(5, 0.1), 60, 2,
                    "cf8f5a075d87975be4f60262c015930215f37225593673b9f5b577c4d1d46e78"),
    "MH-hawks": ((6, 2, 2, 3), "hawks", MhConfig(1e-4), 300, 7,
                 "008374b188836e87c35cfbac071d38ff32b9f978c16187a05311fccfadb48c51"),
    "PP-hawks": ((6, 2, 2, 3), "hawks", PpConfig((0.1, 0.5, 1.0)), 60, 7,
                 "435d24da4a360e55af93fe8e42aa5fe3a8b1460a928cd14611dcc25d710d776f"),
}


@pytest.mark.parametrize("tag", sorted(CHAIN_PINS))
def test_chain_csv_bytes_pinned(tmp_path, tag):
    widths, dataset, config, iterations, seed, digest = CHAIN_PINS[tag]
    if dataset == "xor":
        train, _ = generate_noisy_xor(NoisyXorConfig(train_per_corner=10, test_per_corner=1, seed=0))
    else:
        train, _ = load_vendored(dataset)
    chain = run_posterior_chain(Architecture(widths), train, 10.0, config, iterations, seed=seed)
    path = tmp_path / f"{tag}.csv"
    save_chain(chain, path, path.with_suffix(".json"))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
