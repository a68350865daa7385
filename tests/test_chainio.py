import hashlib
import json
import os
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from damaged_chains import DAMAGE, damage_binary

from bayesmlp.chainio import (
    BINARY_CRC_KEY,
    ChainFileError,
    ChainRows,
    chain_metadata,
    companion_paths,
    format_hms,
    load_chain,
    save_chain,
)
from bayesmlp.data import NoisyXorConfig, generate_noisy_xor, load_vendored
from bayesmlp.mlp import Architecture
from bayesmlp.samplers import Chain, HmcConfig, MhConfig, PpConfig, run_posterior_chain


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
        save_chain(chain, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 40
        assert all(len(line.split(",")) == 3 for line in lines)
        assert "e" in lines[0] or "." in lines[0]

    def test_metadata_fields(self, chain):
        meta = chain_metadata(chain, config={"kind": "MH"})
        assert meta["sampler"] == "MH"
        assert meta["runtime_hms"] == "0:02:34"
        assert meta["config"] == {"kind": "MH"}
        assert meta["iterations"] == 40
        assert meta["dim"] == 3

    def test_pp_metadata_includes_swaps(self, rng):
        chain = Chain(
            rng.normal(size=(10, 2)), burnin=0, seed=0, accepted=5,
            sampler_tag="PP", swap_accepted=4, swap_attempts=10,
        )
        meta = chain_metadata(chain)
        assert meta["swap_accepted"] == 4
        assert meta["swap_attempts"] == 10

    def test_single_row_chain_stays_2d(self, tmp_path):
        chain = Chain(np.ones((1, 4)), burnin=0, seed=0, accepted=1, sampler_tag="MH")
        path = tmp_path / "one.csv"
        save_chain(chain, path)
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
        """Rows from the binary copy, or parsed from the CSV when the copy
        is gone or the sidecar predates it, are the saved draws bit for bit."""
        chain, start = case
        sidecar = layout != "no sidecar"
        csv_path = tmp_path / "c.csv"
        meta_path = tmp_path / "c.json" if sidecar else None
        save_chain(chain, csv_path, meta_path)
        if layout == "binary deleted":
            (tmp_path / "c.npy").unlink()
        elif layout == "no binary key":
            meta = json.loads(meta_path.read_text())
            del meta[BINARY_CRC_KEY]
            meta_path.write_text(json.dumps(meta))
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

    def test_sidecar_without_checksum_loads(self, tmp_path, chain):
        csv_path, meta_path = tmp_path / "c.csv", tmp_path / "c.json"
        save_chain(chain, csv_path, meta_path)
        meta = json.loads(meta_path.read_text())
        del meta["crc32"]
        meta_path.write_text(json.dumps(meta))
        back = load_chain(csv_path, meta_path, start=-10)
        np.testing.assert_array_equal(back.draws, chain.draws[-10:])
        assert (back.first_row, back.burnin, back.accepted) == (30, 10, 25)

    def test_partial_chain_cannot_be_saved(self, tmp_path, chain):
        save_chain(chain, tmp_path / "c.csv", tmp_path / "c.json")
        tail = load_chain(tmp_path / "c.csv", tmp_path / "c.json", start=-5)
        with pytest.raises(ValueError):
            save_chain(tail, tmp_path / "t.csv", tmp_path / "t.json")
        assert sorted(os.listdir(tmp_path)) == ["c.csv", "c.json", "c.npy"]


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
        def half_write(path, draws, **kwargs):
            with open(path, "w") as fh:
                fh.write("0.5,0.")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savetxt", half_write)
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
        assert json.loads(meta_path.read_text())[BINARY_CRC_KEY] == zlib.crc32(binary.read_bytes())
        stored = np.load(binary)
        assert stored.dtype == np.float64 and stored.flags.c_contiguous
        np.testing.assert_array_equal(stored.view(np.uint64), chain.draws.view(np.uint64))

    def test_no_copy_without_sidecar(self, tmp_path, chain):
        save_chain(chain, tmp_path / "c.csv")
        assert os.listdir(tmp_path) == ["c.csv"]

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
        the copy or as the one block of the parsed CSV, on every pass; with
        no rows left it serves one empty block."""
        csv_path, meta_path = tmp_path / "c.csv", tmp_path / "c.json"
        save_chain(chain, csv_path, meta_path)
        if not binary:
            (tmp_path / "c.npy").unlink()
        rows = ChainRows(csv_path, meta_path, start=start)
        want = chain.draws[start:]
        assert (len(rows), rows.first, rows.sampler_tag) == (len(want), len(chain) - len(want), "MH")
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
        def half_save(fh, draws):
            fh.write(b"\x93NUMPY")
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", half_save)
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
    save_chain(chain, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
