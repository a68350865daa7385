import hashlib
import json
import os
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from damaged_chains import DAMAGE, damage_binary

from bayesmlp import chainio, cli, data, samplers
from bayesmlp.chainio import load_chain, save_chain
from bayesmlp.diagnostics import diagnostics_report
from bayesmlp.samplers import Chain, SamplerStartupError


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def xor_config(tmp_path):
    doc = {
        "dataset": {"name": "noisy-xor", "seed": 0, "train_per_corner": 10, "test_per_corner": 5},
        "architecture": {"layer_widths": [2, 2, 1]},
        "sampler": {"kind": "MH", "proposal_variance": 0.05},
        "num_chains": 2,
        "iterations": 400,
        "burnin": 100,
        "tail": 100,
        "seed": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestGenerateData:
    def test_default_counts(self, tmp_path):
        assert run(["generate-data", "--out-dir", tmp_path]) == 0
        train = (tmp_path / "noisy_xor_train.csv").read_text().strip().splitlines()
        test = (tmp_path / "noisy_xor_test.csv").read_text().strip().splitlines()
        assert len(train) == 501  # header + 500 rows
        assert len(test) == 121

    def test_custom_counts_and_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run([
                "generate-data", "--out-dir", out, "--train-per-corner", 7,
                "--test-per-corner", 2, "--seed", 9,
            ]) == 0
        assert (a / "noisy_xor_train.csv").read_bytes() == (b / "noisy_xor_train.csv").read_bytes()
        assert len((a / "noisy_xor_train.csv").read_text().strip().splitlines()) == 29


class TestSample:
    def test_chain_files_shape(self, tmp_path, xor_config):
        out = tmp_path / "chains"
        assert run(["sample", "--config", xor_config, "--out-dir", out]) == 0
        rows = (out / "chain_00.csv").read_text().strip().splitlines()
        assert len(rows) == 400
        assert len(rows[0].split(",")) == 9
        meta = json.loads((out / "chain_00.json").read_text())
        assert meta["sampler"] == "MH"
        assert meta["burnin"] == 100
        assert sorted(os.listdir(out)) == [
            "chain_00.csv", "chain_00.json", "chain_00.npy",
            "chain_01.csv", "chain_01.json", "chain_01.npy", "experiment.json",
        ]

    def test_rerun_is_byte_identical(self, tmp_path, xor_config):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["sample", "--config", xor_config, "--out-dir", out]) == 0
        for name in ("chain_00.csv", "chain_01.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path, xor_config):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert run(["sample", "--config", xor_config, "--out-dir", serial]) == 0
        assert run(["sample", "--config", xor_config, "--out-dir", parallel, "--jobs", 2]) == 0
        for name in ("chain_00.csv", "chain_01.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    @pytest.mark.parametrize("sampler", [
        {"kind": "MH", "proposal_variance": 0.05},
        {"kind": "HMC", "leapfrog_steps": 3, "step_size": 0.3},
        {"kind": "PP", "temperatures": [0.5, 1.0], "proposal_variance": 0.05},
    ])
    def test_job_splits_write_identical_files(self, tmp_path, xor_config, sampler):
        """Four chains as one lockstep group, split 2+2, 2+1+1 and 1+1+1+1
        over workers, give the same chain files; only the runtime differs."""
        doc = {**json.loads(xor_config.read_text()), "sampler": sampler,
               "num_chains": 4, "iterations": 60, "burnin": 10, "tail": 10}
        config = tmp_path / "four.json"
        config.write_text(json.dumps(doc))
        outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2, 3, 8)}
        for jobs, out in outs.items():
            assert run(["sample", "--config", config, "--out-dir", out, "--jobs", jobs]) == 0

        def sidecar(path):
            return {k: v for k, v in json.loads(path.read_text()).items() if not k.startswith("runtime_")}

        for out in outs.values():
            for i in range(4):
                csv, meta = f"chain_{i:02d}.csv", f"chain_{i:02d}.json"
                assert (out / csv).read_bytes() == (outs[1] / csv).read_bytes()
                assert sidecar(out / meta) == sidecar(outs[1] / meta)

    @pytest.mark.parametrize("jobs,chains,groups", [
        (8, 2, [[0], [1]]),
        (3, 4, [[0, 1], [2], [3]]),
        (2, 5, [[0, 1, 2], [3, 4]]),
    ])
    def test_pool_sized_to_chain_groups(self, tmp_path, xor_config, monkeypatch, jobs, chains, groups):
        """--jobs N forks min(N, num_chains) workers, each given a contiguous
        group of chain indices. Each worker logs its pid and group from the
        _sample_worker it calls through the module global; the parent's
        forks are counted, and it runs no group itself."""
        forked, log = [], tmp_path / "workers.log"
        real_fork, real_worker = os.fork, cli._sample_worker

        def counted_fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        def logged_worker(cfg, train, out_dir, indices):
            with log.open("a") as fh:
                fh.write(json.dumps([os.getpid(), indices]) + "\n")
            real_worker(cfg, train, out_dir, indices)

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(cli, "_sample_worker", logged_worker)
        out = tmp_path / "o"
        assert run([
            "sample", "--config", xor_config, "--out-dir", out, "--jobs", jobs,
            "--num-chains", chains, "--iterations", 20, "--burnin", 5, "--tail", 5,
        ]) == 0
        workers = dict(json.loads(line) for line in log.read_text().splitlines())
        assert len(forked) == len(groups) and os.getpid() not in workers
        assert [workers[pid] for pid in forked] == groups
        assert sorted(p.name for p in out.glob("chain_*.csv")) == [f"chain_{i:02d}.csv" for i in range(chains)]

    def test_hawks_chain_width(self, tmp_path):
        out = tmp_path / "hawks"
        assert run([
            "sample", "--dataset", "hawks", "--arch", "6,2,2,3",
            "--num-chains", 1, "--iterations", 30, "--burnin", 5, "--tail", 5,
            "--seed", 1, "--out-dir", out,
        ]) == 0
        rows = (out / "chain_00.csv").read_text().strip().splitlines()
        assert len(rows[0].split(",")) == 29

    @pytest.mark.parametrize("sampler", ["MH", "HMC", "PP"])
    def test_sidecar_counts_divergences_of_hmc_only(self, tmp_path, xor_config, sampler):
        """Every HMC chain's sidecar counts its divergences, 0 included, so it
        is told apart from an MH or PP chain, whose sidecar has no such key."""
        out = tmp_path / "o"
        assert run(["sample", "--config", xor_config, "--out-dir", out, "--sampler", sampler,
                    "--iterations", 60, "--burnin", 10, "--tail", 10]) == 0
        metas = [json.loads((out / f"chain_{i:02d}.json").read_text()) for i in range(2)]
        if sampler == "HMC":
            assert [meta["divergences"] for meta in metas] == [0, 0]
        else:
            assert not any("divergences" in meta for meta in metas)

    def test_flag_overrides_config(self, tmp_path, xor_config):
        out = tmp_path / "o"
        assert run([
            "sample", "--config", xor_config, "--out-dir", out, "--iterations", 150,
        ]) == 0
        assert len((out / "chain_00.csv").read_text().strip().splitlines()) == 150


    def test_file_dataset_may_carry_a_name(self, tmp_path, xor_config):
        """A name that is no known dataset labels a train/test file section."""
        data_dir = tmp_path / "data"
        assert run(["generate-data", "--out-dir", data_dir, "--train-per-corner", 5, "--test-per-corner", 2]) == 0
        doc = json.loads(xor_config.read_text())
        doc["dataset"] = {
            "name": "my-xor",
            "train": str(data_dir / "noisy_xor_train.csv"),
            "test": str(data_dir / "noisy_xor_test.csv"),
            "manifest": str(data_dir / "noisy_xor_manifest.json"),
        }
        xor_config.write_text(json.dumps(doc))
        assert run(["sample", "--config", xor_config, "--iterations", 150, "--out-dir", tmp_path / "o"]) == 0

    def test_file_flags_replace_named_dataset(self, tmp_path, xor_config):
        data_dir = tmp_path / "data"
        assert run(["generate-data", "--out-dir", data_dir, "--train-per-corner", 5, "--test-per-corner", 2]) == 0
        out = tmp_path / "o"
        assert run([
            "sample", "--config", xor_config, "--out-dir", out,
            "--train", data_dir / "noisy_xor_train.csv", "--test", data_dir / "noisy_xor_test.csv",
            "--manifest", data_dir / "noisy_xor_manifest.json",
        ]) == 0
        assert json.loads((out / "experiment.json").read_text())["dataset"] == {
            "train": str(data_dir / "noisy_xor_train.csv"),
            "test": str(data_dir / "noisy_xor_test.csv"),
            "manifest": str(data_dir / "noisy_xor_manifest.json"),
        }


class TestDiagnose:
    def test_identical_copies_below_one(self, tmp_path, rng):
        chain = Chain(rng.normal(size=(500, 3)), burnin=0, seed=0, accepted=1, sampler_tag="MH")
        paths = []
        for i in range(3):
            path = tmp_path / f"c{i}.csv"
            save_chain(chain, path, path.with_suffix(".json"))
            paths.append(path)
        report_path = tmp_path / "report.json"
        assert run(["diagnose", "--chains", *paths, "--burnin", 0, "--out", report_path]) == 0
        report = json.loads(report_path.read_text())
        assert report["psrf"] < 1.0
        assert report["m"] == 3

    def test_negative_burnin_is_invalid_input(self, tmp_path, rng, capsys):
        chain = Chain(rng.normal(size=(100, 2)), burnin=0, seed=0, accepted=1, sampler_tag="MH")
        paths = [tmp_path / f"c{i}.csv" for i in range(2)]
        for path in paths:
            save_chain(chain, path, path.with_suffix(".json"))
        report_path = tmp_path / "report.json"
        assert run(["diagnose", "--chains", *paths, "--burnin", -30, "--out", report_path]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"
        assert not report_path.exists()

    def test_burnin_report_equals_full_chain_report(self, tmp_path, xor_config):
        """Burn-in rows are skipped unparsed; the report is the one computed
        on whole chains with that burn-in."""
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        paths = [out / "chain_00.csv", out / "chain_01.csv"]
        report_path = tmp_path / "report.json"
        assert run(["diagnose", "--chains", *paths, "--burnin", 150, "--out", report_path]) == 0
        whole = [load_chain(p, p.with_suffix(".json")).draws for p in paths]
        assert report_path.read_text() == cli._json_text(diagnostics_report(whole, burnin=150))

    @pytest.mark.parametrize("burnin", [500, 501, 10**6])
    def test_burnin_past_chain_is_invalid_input(self, tmp_path, rng, capsys, burnin):
        chain = Chain(rng.normal(size=(500, 2)), burnin=0, seed=0, accepted=1, sampler_tag="MH")
        paths = [tmp_path / f"c{i}.csv" for i in range(2)]
        for path in paths:
            save_chain(chain, path, path.with_suffix(".json"))
        assert run(["diagnose", "--chains", *paths, "--burnin", burnin]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "invalid-input", "message": "burn-in leaves no draws"}

    def test_table_rows_per_sampler(self, tmp_path, rng, capsys):
        paths = []
        for tag in ("MH", "HMC"):
            for i in range(2):
                chain = Chain(
                    rng.normal(size=(300, 2)), burnin=0, seed=i, accepted=1, sampler_tag=tag
                )
                path = tmp_path / f"{tag}_{i}.csv"
                save_chain(chain, path, path.with_suffix(".json"))
                paths.append(path)
        assert run(["diagnose", "--chains", *paths, "--burnin", 0]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["Sampler", "PSRF", "ESS"]
        assert {line.split()[0] for line in lines[1:]} == {"MH", "HMC"}


class TestStreamedDiagnose:
    """diagnose holds one chain's draws at a time and writes the report that
    diagnostics_report makes of the whole chains in memory."""

    @staticmethod
    def save_group(tmp_path, rng, tag, count, length, burnin, offset=0):
        paths = []
        for i in range(count):
            draws = rng.standard_normal((length, 3)) + 0.1 * i
            path = tmp_path / f"{tag}_{offset + i}.csv"
            chain = Chain(draws, burnin=burnin, seed=i, accepted=0, sampler_tag=tag)
            save_chain(chain, path, path.with_suffix(".json"))
            paths.append(path)
        return paths

    @pytest.mark.parametrize("flags,burnin", [(["--burnin", 150], 150), ([], 120)])
    def test_report_matches_whole_chains_in_memory(self, tmp_path, flags, burnin):
        """With --burnin, and with the sidecars' burn-in, whose rows are
        now skipped at load too, the report is the one computed on the
        whole chains."""
        rng = np.random.default_rng(107)
        mh = self.save_group(tmp_path, rng, "MH", 3, 600, 80)
        pp = self.save_group(tmp_path, rng, "PP", 2, 500, 120)
        report_path = tmp_path / "report.json"
        paths = [mh[0], pp[0], mh[1], pp[1], mh[2]]
        assert run(["diagnose", "--chains", *paths, *flags, "--out", report_path]) == 0

        def whole(group):
            return [load_chain(p, p.with_suffix(".json")).draws for p in group]

        expected = {
            "MH": diagnostics_report(whole(mh), burnin=burnin),
            "PP": diagnostics_report(whole(pp), burnin=burnin),
        }
        assert report_path.read_text() == cli._json_text(expected)

    @pytest.mark.parametrize("flags", [["--burnin", 500], []])
    def test_peak_does_not_grow_with_chain_count(self, tmp_path, flags):
        """The allocation peak over 8 chains stays below the peak over 4 of
        them plus one chain's post-burn-in bytes."""
        rng = np.random.default_rng(109)
        paths = self.save_group(tmp_path, rng, "MH", 8, 6000, 500)

        def peak(chains):
            tracemalloc.start()
            try:
                assert run(["diagnose", "--chains", *chains, *flags]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(paths[:2])  # warm-up: first-call allocations are not the chains'
        assert peak(paths) < peak(paths[:4]) + 5500 * 3 * 8

    def test_peak_is_the_spectra_of_one_chain(self, tmp_path):
        """diagnose never holds a chain's draws: on 20000 x 29 chains read
        from their files, its allocation peak stays below 2.3 chain-sizes,
        the two of MINSE's stored spectra and the scan's buffers."""
        rng = np.random.default_rng(113)
        draws = rng.standard_normal((20000, 29))
        paths = []
        for i in range(2):
            path = tmp_path / f"c{i}.csv"
            save_chain(Chain(draws + i, burnin=0, seed=i, accepted=0, sampler_tag="MH"),
                       path, path.with_suffix(".json"))
            paths.append(path)
        small = self.save_group(tmp_path, rng, "PP", 2, 600, 0)
        assert run(["diagnose", "--chains", *small]) == 0  # first-call allocations are not the chains'
        tracemalloc.start()
        try:
            assert run(["diagnose", "--chains", *paths]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.3 * draws.nbytes


#: SHA-256 of diagnose reports on small noisy-XOR chain sets, by sampler:
#: (sampler section, chains, iterations, burn-in, digest). Each chain's
#: 1000 post-burn-in rows of 9 draws span two blocks of its .npy reader
#: and end inside a MINSE block. Taken while diagnose still loaded each
#: chain's draws whole.
DIAGNOSE_PINS = {
    "MH": ({"kind": "MH", "proposal_variance": 0.05}, 4, 1200, 200,
           "fd363892fdc8343a419d97910faca3e034ad60aea93585853ee240c0343bac53"),
    "PP": ({"kind": "PP", "temperatures": [0.5, 1.0], "proposal_variance": 0.05}, 3, 1200, 200,
           "a8d9b92524fee6ccf84f21eefab0c2819f205acc41043e95d2b8ff786d791c31"),
    "HMC": ({"kind": "HMC", "leapfrog_steps": 3, "step_size": 0.3}, 3, 1200, 200,
            "a870066bfc5da6402cc95deeed6cce2eca262262ef52855053dde9eebf5de6e2"),
}


@pytest.mark.parametrize("tag", sorted(DIAGNOSE_PINS))
def test_diagnose_report_bytes_pinned(tmp_path, xor_config, tag):
    sampler, chains, iterations, burnin, digest = DIAGNOSE_PINS[tag]
    doc = {**json.loads(xor_config.read_text()), "sampler": sampler,
           "num_chains": chains, "iterations": iterations, "burnin": burnin}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "chains"
    assert run(["sample", "--config", config, "--out-dir", out]) == 0
    report = tmp_path / "report.json"
    assert run(["diagnose", "--chains", *sorted(out.glob("chain_*.csv")), "--out", report]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def fault_draws(kind: str, length: int, seed: int) -> np.ndarray:
    """Two-parameter draws: a random walk, a walk whose second coordinate
    is stuck, a constant chain (degenerate) or a chain that jumps once (its
    first MINSE partial sum is singular)."""
    if kind in ("walk", "stuck"):
        draws = np.cumsum(np.random.default_rng(seed).standard_normal((length, 2)), axis=0)
        if kind == "stuck":
            draws[:, 1] = 0.1
        return draws
    draws = np.full((length, 2), 0.1)
    if kind == "jump":
        draws[length // 2 :] = [1.0, 2.0]
    return draws


def flip_csv_digit(csv_path):
    """Change the last digit of row 0, so the CSV fails its sidecar's CRC-32."""
    text = bytearray(csv_path.read_bytes())
    at = text.index(b"\n") - 1
    text[at] = ord("7") if text[at] != ord("7") else ord("3")
    csv_path.write_bytes(bytes(text))


FIRST_MINSE = (
    "first MINSE partial sum is not positive definite; "
    "the chain is too short or severely anticorrelated"
)
CRC = "{csv} does not match the CRC-32 its metadata {meta} records"

#: Chains of (kind, sampler tag, length, sidecar burn-in, CSV damaged),
#: extra diagnose flags, and the exit code, error category and message;
#: {csv} and {meta} name the damaged chain's files. Most inputs hold more
#: than one fault, and the expected error is the one diagnose reports when
#: it has every chain in memory before it checks any of them. The last
#: four pin the error of one pathological chain: constant, with one
#: coordinate stuck, with a single jump, and with no more draws than
#: dimensions.
MULTI_FAULT = {
    "jump first, damaged last": (
        [("jump", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0),
         ("walk", "MH", 400, 0, 1)], [], (3, "io", CRC)),
    "jump first, damaged last, --burnin": (
        [("jump", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0),
         ("walk", "MH", 400, 0, 1)], ["--burnin", 100], (3, "io", CRC)),
    "constant first, damaged last": (
        [("constant", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 1)],
        [], (3, "io", CRC)),
    "constant first, jump second": (
        [("constant", "MH", 400, 0, 0), ("jump", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0)],
        [], (6, "diagnostics", FIRST_MINSE)),
    "constant last": (
        [("walk", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0), ("constant", "MH", 400, 0, 0)],
        [], (6, "diagnostics", "empirical covariance has nonpositive determinant")),
    "--burnin empties one, damaged last": (
        [("walk", "MH", 100, 0, 0), ("walk", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 1)],
        ["--burnin", 150], (3, "io", CRC)),
    "--burnin empties one, jump second": (
        [("walk", "MH", 100, 0, 0), ("jump", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0)],
        ["--burnin", 150], (4, "invalid-input", "burn-in leaves no draws")),
    "--burnin empties another group": (
        [("jump", "MH", 400, 0, 0), ("walk", "MH", 300, 0, 0), ("walk", "PP", 100, 0, 0)],
        ["--burnin", 150], (4, "invalid-input", "burn-in leaves no draws")),
    "MH fault, PP of another length": (
        [("jump", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0), ("walk", "PP", 300, 0, 0),
         ("walk", "PP", 300, 0, 0)], [], (6, "diagnostics", FIRST_MINSE)),
    "PP of another length, MH fault": (
        [("walk", "PP", 300, 0, 0), ("walk", "PP", 300, 0, 0), ("jump", "MH", 400, 0, 0),
         ("walk", "MH", 400, 0, 0)], [], (6, "diagnostics", FIRST_MINSE)),
    "MH fault, PP lengths differ": (
        [("jump", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0), ("walk", "PP", 300, 0, 0),
         ("walk", "PP", 250, 0, 0)], [], (6, "diagnostics", FIRST_MINSE)),
    "PP lengths differ, MH fault": (
        [("walk", "PP", 300, 0, 0), ("walk", "PP", 250, 0, 0), ("jump", "MH", 400, 0, 0),
         ("walk", "MH", 400, 0, 0)],
        [], (4, "invalid-input", "all chains must share the same (length, dim) shape")),
    "sidecar burn-in past another group": (
        [("walk", "MH", 400, 300, 0), ("walk", "MH", 400, 300, 0), ("walk", "PP", 200, 0, 0),
         ("walk", "PP", 200, 0, 0)], [], (4, "invalid-input", "burn-in leaves no draws")),
    "sidecar burn-in past a group whose lengths differ": (
        [("walk", "MH", 400, 300, 0), ("walk", "MH", 400, 300, 0), ("walk", "PP", 200, 0, 0),
         ("walk", "PP", 150, 0, 0)],
        [], (4, "invalid-input", "all chains must share the same (length, dim) shape")),
    "sidecar burn-in past a group, damaged last": (
        [("walk", "PP", 200, 0, 0), ("walk", "PP", 200, 0, 0), ("walk", "MH", 400, 300, 0),
         ("walk", "MH", 400, 300, 1)], [], (3, "io", CRC)),
    "one chain with a fault": (
        [("jump", "MH", 400, 0, 0)], [], (4, "invalid-input", "PSRF needs at least two chains")),
    "constant fourth": (
        [("walk", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0),
         ("constant", "MH", 400, 0, 0)], [],
        (6, "diagnostics", "empirical covariance has nonpositive determinant")),
    "stuck coordinate last": (
        [("walk", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0),
         ("stuck", "MH", 400, 0, 0)], [],
        (6, "diagnostics", "zero-variance coordinate(s) [1]: MINSE is undefined")),
    "jump last": (
        [("walk", "MH", 400, 0, 0), ("walk", "MH", 400, 0, 0), ("jump", "MH", 400, 0, 0)],
        [], (6, "diagnostics", FIRST_MINSE)),
    "no more draws than dimensions": (
        [("walk", "MH", 3, 0, 0), ("walk", "MH", 3, 0, 0)], ["--burnin", 1],
        (6, "diagnostics", "need more draws (2) than dimensions (2)")),
}


class TestDiagnoseMultiFault:
    """Which fault diagnose reports, and with which exit code, does not
    depend on when it loads each chain."""

    @pytest.mark.parametrize("case", list(MULTI_FAULT))
    def test_reported_fault(self, tmp_path, capsys, case):
        specs, flags, (code, category, message) = MULTI_FAULT[case]
        paths, names = [], {}
        for i, (kind, tag, length, burnin, damaged) in enumerate(specs):
            path = tmp_path / f"c{i}.csv"
            chain = Chain(fault_draws(kind, length, i), burnin=burnin, seed=i, accepted=0, sampler_tag=tag)
            save_chain(chain, path, path.with_suffix(".json"))
            if damaged:
                flip_csv_digit(path)
                names = {"csv": path, "meta": path.with_suffix(".json")}
            paths.append(path)
        report = tmp_path / "report.json"
        assert run(["diagnose", "--chains", *paths, *flags, "--out", report]) == code
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"error": category, "message": message.format(**names)}
        assert captured.out == ""  # no table header before the failure
        assert not report.exists()


def chains_with_a_wide_last(tmp_path, xor_config):
    """Two sampled chains of MLP(2, 2, 1) and a third of 5 parameters."""
    out = tmp_path / "chains"
    assert run(["sample", "--config", xor_config, "--out-dir", out]) == 0
    wide = tmp_path / "wide.csv"
    chain = Chain(np.zeros((400, 5)), burnin=100, seed=0, accepted=0, sampler_tag="MH")
    save_chain(chain, wide, wide.with_suffix(".json"))
    return [out / "chain_00.csv", out / "chain_01.csv", wide]


class TestPredict:
    def test_accuracy_summary(self, tmp_path, xor_config, capsys):
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        pred = tmp_path / "pred"
        assert run([
            "predict", "--config", xor_config, "--chains",
            out / "chain_00.csv", out / "chain_01.csv", "--out-dir", pred,
        ]) == 0
        summary = json.loads((pred / "accuracy_summary.json").read_text())
        assert len(summary["per_chain_accuracy"]) == 2
        assert "mean accuracy" in capsys.readouterr().out
        header = (pred / "predictions_chain_00.csv").read_text().splitlines()[0]
        assert header == "index,true_label,predicted_label,prob_predicted,prob_true"

    def test_perfect_synthetic_tail(self, tmp_path, capsys):
        """A tail that classifies everything correctly reports 100.00."""
        theta = np.zeros(9)
        theta[:8] = [12.0, -12.0, -12.0, 12.0, -6.0, -6.0, 14.0, 14.0]
        theta[8] = -7.0  # hand-built XOR solution
        chain = Chain(np.tile(theta, (50, 1)), burnin=0, seed=0, accepted=1, sampler_tag="MH")
        path = tmp_path / "perfect.csv"
        save_chain(chain, path, path.with_suffix(".json"))
        assert run([
            "predict", "--dataset", "noisy-xor", "--arch", "2,2,1",
            "--tail", 50, "--chains", path, "--out-dir", tmp_path / "pred",
        ]) == 0
        assert "mean accuracy 100.00" in capsys.readouterr().out

    def test_edit_before_tail_is_io_error(self, tmp_path, xor_config, capsys):
        """predict parses only the last 100 rows, yet a one-byte edit in row 0
        fails the sidecar's checksum."""
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        csv_path = out / "chain_00.csv"
        text = bytearray(csv_path.read_bytes())
        at = text.index(b"\n") - 1  # last digit of row 0
        text[at] = ord("7") if text[at] != ord("7") else ord("3")
        csv_path.write_bytes(bytes(text))
        pred = tmp_path / "pred"
        assert run(["predict", "--config", xor_config, "--chains", csv_path, "--out-dir", pred]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "io"
        assert not (pred / "accuracy_summary.json").exists()

    def test_failed_later_chain_leaves_no_file(self, tmp_path, xor_config, capsys):
        """A chain that fails after others were evaluated leaves no
        prediction file of the chains before it."""
        paths = chains_with_a_wide_last(tmp_path, xor_config)
        pred = tmp_path / "pred"
        assert run([
            "predict", "--config", xor_config, "--arch", "2,2,1", "--chains", *paths, "--out-dir", pred,
        ]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "dimension"
        assert list(pred.iterdir()) == []

    def test_prior_baseline_routing(self, tmp_path, xor_config, capsys):
        pred = tmp_path / "prior"
        assert run([
            "predict", "--config", xor_config, "--prior-baseline",
            "--num-draws", 200, "--out-dir", pred,
        ]) == 0
        assert "prior baseline accuracy" in capsys.readouterr().out
        assert (pred / "prior_baseline.json").exists()


HAWKS_HMC = {
    "dataset": {"name": "hawks"},
    "architecture": {"layer_widths": [6, 2, 2, 3]},
    "sampler": {"kind": "HMC", "leapfrog_steps": 5, "step_size": 0.05},
    "num_chains": 2,
    "iterations": 300,
    "burnin": 100,
    "tail": 100,
    "seed": 5,
}


class TestBinaryCopy:
    @pytest.mark.parametrize("run_kind", ["MH-xor", "HMC-hawks"])
    def test_outputs_identical_without_copies(self, tmp_path, xor_config, monkeypatch, run_kind):
        """diagnose and predict write the same bytes whether they read the
        binary copies, parsing no text, or parse the CSVs once the copies
        and the sidecars are deleted, as for chains another tool wrote."""
        config = xor_config
        if run_kind == "HMC-hawks":
            config = tmp_path / "hawks.json"
            config.write_text(json.dumps(HAWKS_HMC))
        chains = tmp_path / "chains"
        assert run(["sample", "--config", config, "--out-dir", chains]) == 0
        paths = [chains / "chain_00.csv", chains / "chain_01.csv"]

        def outputs(name):
            out = tmp_path / name
            assert run(["predict", "--config", config, "--chains", *paths, "--out-dir", out]) == 0
            assert run(["diagnose", "--chains", *paths, "--burnin", 100, "--out", out / "report.json"]) == 0
            return {path.name: path.read_bytes() for path in out.iterdir()}

        with monkeypatch.context() as patch:
            patch.setattr(np, "loadtxt", lambda *a, **k: pytest.fail("a chain CSV was parsed"))
            from_copies = outputs("copies")
        assert len(from_copies) == 4
        for path in paths:
            path.with_suffix(".npy").unlink()
            path.with_suffix(".json").unlink()
        assert outputs("csv") == from_copies

    @pytest.mark.parametrize("how", DAMAGE)
    def test_damaged_copy_is_io_error(self, tmp_path, xor_config, capsys, how):
        chains = tmp_path / "chains"
        assert run(["sample", "--config", xor_config, "--out-dir", chains]) == 0
        paths = [chains / "chain_00.csv", chains / "chain_01.csv"]
        damage_binary(paths[1], how)
        capsys.readouterr()
        report, pred = tmp_path / "report.json", tmp_path / "pred"
        assert run(["diagnose", "--chains", *paths, "--burnin", 100, "--out", report]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "io"
        assert run(["predict", "--config", xor_config, "--chains", *paths, "--out-dir", pred]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "io"
        assert not report.exists() and not (pred / "accuracy_summary.json").exists()


class TestGrid:
    def test_grid_files(self, tmp_path, xor_config):
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        grid_dir = tmp_path / "grid"
        assert run([
            "grid", "--config", xor_config, "--chain", out / "chain_00.csv",
            "--out-dir", grid_dir,
        ]) == 0
        grid = np.loadtxt(grid_dir / "grid.csv", delimiter=",")
        truth = np.loadtxt(grid_dir / "grid_truth.csv", delimiter=",")
        assert grid.shape == truth.shape == (22, 22)
        assert ((grid >= 0) & (grid <= 1)).all()
        assert set(np.unique(truth)) <= {0.0, 1.0}

    def test_truth_quadrant_value(self, tmp_path, xor_config):
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        grid_dir = tmp_path / "grid"
        run([
            "grid", "--config", xor_config, "--chain", out / "chain_00.csv",
            "--out-dir", grid_dir, "--bounds", 0, 1, "--resolution", 2,
        ])
        truth = np.loadtxt(grid_dir / "grid_truth.csv", delimiter=",")
        np.testing.assert_array_equal(truth, [[0, 1], [1, 0]])


class TestTracesAndBoxplot:
    def test_traces_columns_and_marker(self, tmp_path, xor_config):
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        trace_dir = tmp_path / "traces"
        assert run([
            "traces", "--chains", out / "chain_00.csv", out / "chain_01.csv",
            "--coords", 8, "--out-dir", trace_dir,
        ]) == 0
        lines = (trace_dir / "traces.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,burnin,chain0_coord8,chain1_coord8"
        assert len(lines) == 401
        markers = [int(line.split(",")[1]) for line in lines[1:]]
        assert sum(markers) == 100  # burn-in from metadata
        assert markers[:100] == [1] * 100

    def test_traces_negative_burnin(self, tmp_path, xor_config, capsys):
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        trace_dir = tmp_path / "traces"
        assert run([
            "traces", "--chains", out / "chain_00.csv", "--coords", 8, "--burnin", -5,
            "--out-dir", trace_dir,
        ]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"
        assert not trace_dir.exists()

    @pytest.mark.parametrize("burnin", [400, 4000])
    def test_traces_burnin_past_chain(self, tmp_path, xor_config, capsys, burnin):
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        trace_dir = tmp_path / "traces"
        assert run([
            "traces", "--chains", out / "chain_00.csv", "--coords", 8, "--burnin", burnin,
            "--out-dir", trace_dir,
        ]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "invalid-input", "message": "burn-in leaves no draws"}
        assert not trace_dir.exists()

    def test_traces_coordinate_bounds(self, tmp_path, xor_config):
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        trace_dir = tmp_path / "traces"
        code = run(["traces", "--chains", out / "chain_00.csv", "--coords", 9,
                    "--out-dir", trace_dir])
        assert code == 4
        assert not trace_dir.exists()

    @pytest.mark.parametrize("coord", [1, 8])
    def test_traces_chains_of_different_widths(self, tmp_path, xor_config, capsys, coord):
        """A 9-parameter chain beside a 2-parameter one is rejected before
        any output directory is made, whichever coordinate is asked for."""
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        narrow = tmp_path / "narrow.csv"
        np.savetxt(narrow, np.zeros((400, 2)), fmt="%.17g", delimiter=",")
        trace_dir = tmp_path / "traces"
        assert run([
            "traces", "--chains", out / "chain_00.csv", narrow, "--coords", coord,
            "--out-dir", trace_dir,
        ]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"
        assert not trace_dir.exists()

    def test_traces_match_whole_chains_in_memory(self, tmp_path):
        """Chains of different lengths and burn-ins: the rows stop at the
        shortest chain, the marker follows the largest burn-in and every
        value is the stored draw."""
        rng = np.random.default_rng(113)
        paths, draws = [], []
        for i, (length, burnin) in enumerate([(50, 5), (40, 12), (60, 0)]):
            draws.append(rng.standard_normal((length, 4)))
            paths.append(tmp_path / f"c{i}.csv")
            chain = Chain(draws[-1], burnin=burnin, seed=i, accepted=0, sampler_tag="MH")
            save_chain(chain, paths[-1], paths[-1].with_suffix(".json"))
        out = tmp_path / "traces"
        assert run(["traces", "--chains", *paths, "--coords", 3, 0, "--out-dir", out]) == 0
        lines = (out / "traces.csv").read_text().splitlines()
        assert lines[0] == ",".join(
            ["iteration", "burnin"] + [f"chain{c}_coord{k}" for c in range(3) for k in (3, 0)]
        )
        expected = [
            ",".join([str(it), str(int(it < 12))] + [f"{d[it, k]:.17g}" for d in draws for k in (3, 0)])
            for it in range(40)
        ]
        assert lines[1:] == expected

    def test_traces_peak_does_not_grow_with_chain_count(self, tmp_path):
        """The allocation peak over 8 chains stays below the peak over 4 of
        them plus one chain's bytes: a chain is cut to its one requested
        column, a ninth of it, before the next one loads."""
        rng = np.random.default_rng(127)
        length, dim = 6000, 9
        paths = []
        for i in range(8):
            path = tmp_path / f"c{i}.csv"
            chain = Chain(rng.standard_normal((length, dim)), burnin=500, seed=i, accepted=0, sampler_tag="MH")
            save_chain(chain, path, path.with_suffix(".json"))
            paths.append(path)

        def peak(chains):
            tracemalloc.start()
            try:
                assert run(["traces", "--chains", *chains, "--coords", 4, "--out-dir", tmp_path / "t"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(paths[:2])  # warm-up: first-call allocations are not the chains'
        assert peak(paths) < peak(paths[:4]) + length * dim * 8

    def test_traces_peak_flat_in_chain_length(self, tmp_path):
        """traces reads a chain block by block and writes the requested
        columns as it reads them: on a 20000 x 29 chain its allocation peak
        exceeds that on a 300-row chain by less than two blocks of rows,
        which is less than the two columns it writes (320 kB) and far less
        than the chain (4.6 MB). The 300-row run has the costs that do not
        grow with the chain, such as the output file's buffer."""
        rng = np.random.default_rng(131)
        draws = rng.standard_normal((20000, 29))
        paths = []
        for i, length in enumerate([300, len(draws)]):
            paths.append(tmp_path / f"c{i}.csv")
            chain = Chain(draws[:length], burnin=100, seed=i, accepted=0, sampler_tag="MH")
            save_chain(chain, paths[-1], paths[-1].with_suffix(".json"))
        args = ["traces", "--coords", 3, 17, "--out-dir", tmp_path / "t", "--chains"]

        def peak(chain):
            tracemalloc.start()
            try:
                assert run(args + [chain]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(paths[0])  # warm-up: first-call allocations are not the chain's
        assert peak(paths[1]) < peak(paths[0]) + 2 * (1 << 16)

    def test_traces_chain_failing_while_read_leaves_no_output(self, tmp_path, monkeypatch):
        """traces writes rows as it reads them; a chain whose file fails
        after its first block (e.g. cut short after its check) exits 3 and
        leaves no traces.csv."""
        rng = np.random.default_rng(137)
        paths = []
        for i in range(2):
            paths.append(tmp_path / f"c{i}.csv")
            chain = Chain(rng.standard_normal((3000, 9)), burnin=0, seed=i, accepted=0, sampler_tag="MH")
            save_chain(chain, paths[-1], paths[-1].with_suffix(".json"))
        real_blocks = chainio.ChainRows.blocks

        def cut_after_one_block(self, size):
            blocks = real_blocks(self, size)
            yield next(blocks)
            raise chainio.ChainFileError("cut short while it was read")

        monkeypatch.setattr(chainio.ChainRows, "blocks", cut_after_one_block)
        out = tmp_path / "t"
        assert run(["traces", "--chains", *paths, "--coords", 2, "--out-dir", out]) == 3
        assert os.listdir(out) == []

    def test_boxplot_accuracy_list(self, tmp_path, xor_config):
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        box_dir = tmp_path / "box"
        assert run([
            "boxplot-data", "--config", xor_config, "--chains",
            out / "chain_00.csv", out / "chain_01.csv", "--out-dir", box_dir,
        ]) == 0
        lines = (box_dir / "boxplot_accuracies.csv").read_text().strip().splitlines()
        assert lines[0] == "chain,accuracy"
        assert len(lines) == 3


    def test_boxplot_failed_later_chain_leaves_no_file(self, tmp_path, xor_config, capsys):
        paths = chains_with_a_wide_last(tmp_path, xor_config)
        box_dir = tmp_path / "box"
        assert run([
            "boxplot-data", "--config", xor_config, "--arch", "2,2,1", "--chains", *paths,
            "--out-dir", box_dir,
        ]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "dimension"
        assert list(box_dir.iterdir()) == []


#: SHA-256 of the outputs of TestSgdCommand::test_small_ensemble.
SGD_PINS = {
    "sgd_solutions.csv": "516ab371c438cc55e85aa11ff90c530085570a288eb8e6f7114b9b4176421f08",
    "sgd_accuracies.csv": "e969f5613d9de749984bae8495d2fa58211cd5324fd3d737e1e9608cf510e929",
}


class TestSgdCommand:
    def test_small_ensemble(self, tmp_path, capsys):
        out = tmp_path / "sgd"
        assert run([
            "sgd-ensemble", "--dataset", "noisy-xor", "--arch", "2,2,1",
            "--epochs", 40, "--batch-size", 50, "--learning-rate", 0.05,
            "--accept-threshold", 0.6, "--ensemble-size", 2, "--max-sessions", 20,
            "--seed", 2, "--out-dir", out,
        ]) == 0
        solutions = np.loadtxt(out / "sgd_solutions.csv", delimiter=",")
        assert solutions.shape == (2, 9)
        # the accept decisions hinge on accuracy > threshold, so the bytes pin them
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SGD_PINS} == SGD_PINS


class TestErrors:
    def test_unknown_config_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus": 1}))
        assert run(["sample", "--config", path, "--out-dir", tmp_path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    @pytest.mark.parametrize("section,patch", [
        ("sampler", {"kind": "MH", "proposal_varaince": 0.5}),
        ("sampler", {"kind": "HMC", "leapfrog_steps": 5, "step_size": 0.1, "proposal_variance": 0.5}),
        ("sampler", {"kind": "PP", "temperatures": [0.5, 1.0], "leapfrog_steps": 5}),
        ("sampler", {"kind": "NUTS"}),
        ("sampler", {"kind": 3}),
        ("sampler", {"kind": "MH", "proposal_variance": None}),
        ("dataset", {"name": "noisy-xor", "seed": 0, "train_per_corne": 10}),
        ("dataset", {"name": "hawks", "seed": 0}),
        ("dataset", {"train": "a.csv", "test": "b.csv", "labels": "y"}),
        ("architecture", {"layer_widths": [2, 2, 1], "activation": "tanh"}),
        ("architecture", {"layer_widths": [2, 2, 1], "hidden_activation": "swish"}),
        ("sampler", {"kind": "HMC", "leapfrog_steps": 2.7}),
        ("sampler", {"kind": "HMC", "leapfrog_steps": True}),
        ("sampler", {"kind": "MH", "proposal_variance": "0.05"}),
        ("sampler", {"kind": "MH", "proposal_variance": float("nan")}),
        ("sampler", {"kind": "HMC", "step_size": float("inf")}),
        ("sampler", {"kind": "PP", "temperatures": "01"}),
        ("architecture", {"layer_widths": [2, 2.9, 1]}),
        ("dataset", {"name": "noisy-xor", "train_per_corner": 5.9}),
        ("dataset", {"name": "noisy-xor", "seed": -3}),
    ])
    def test_bad_section_is_config_error(self, tmp_path, xor_config, capsys, section, patch):
        doc = json.loads(xor_config.read_text())
        doc[section] = patch
        xor_config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["sample", "--config", xor_config, "--out-dir", out]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("iterations", "100"),
        ("iterations", 100.0),
        ("num_chains", True),
        ("burnin", None),
        ("tail", [10]),
        ("seed", -1),
        ("seed", "3"),
        ("prior_variance", "10"),
        ("sampler", "MH"),
        ("dataset", ["noisy-xor"]),
        ("architecture", [2, 2, 1]),
        ("prior_variance", float("nan")),
    ])
    def test_bad_field_type_is_config_error(self, tmp_path, xor_config, capsys, field, value):
        doc = json.loads(xor_config.read_text())
        doc[field] = value
        xor_config.write_text(json.dumps(doc))
        assert run(["sample", "--config", xor_config, "--out-dir", tmp_path / "out"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_config_file_not_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"iterations": 100,')
        assert run(["sample", "--config", path, "--out-dir", tmp_path / "out"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_config_document_not_object_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("3")
        assert run(["sample", "--config", path, "--out-dir", tmp_path / "out"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_arch_flag_not_integers_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["sample", "--dataset", "noisy-xor", "--arch", "2,x,1", "--out-dir", out]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not out.exists()

    @pytest.mark.parametrize("manifest", [None, {"label_column": "label"}])
    def test_csv_dataset_without_feature_columns_is_config_error(self, tmp_path, capsys, manifest):
        """Neither the section nor its manifest names the feature columns."""
        data_dir = tmp_path / "data"
        assert run(["generate-data", "--out-dir", data_dir, "--train-per-corner", 2, "--test-per-corner", 1]) == 0
        dataset = {"train": str(data_dir / "noisy_xor_train.csv"), "test": str(data_dir / "noisy_xor_test.csv")}
        if manifest is not None:
            (tmp_path / "manifest.json").write_text(json.dumps(manifest))
            dataset["manifest"] = str(tmp_path / "manifest.json")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": dataset, "num_chains": 1, "iterations": 10, "burnin": 0, "tail": 5}))
        out = tmp_path / "out"
        assert run(["sample", "--config", path, "--out-dir", out]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "feature_columns" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["generate-data", "--c", 2.0],
        ["generate-data", "--train-per-corner", 0],
        ["generate-data", "--c", "nan"],
        ["sgd-ensemble", "--dataset", "noisy-xor", "--epochs", 0],
        ["sgd-ensemble", "--dataset", "noisy-xor", "--ensemble-size", 5, "--max-sessions", 2],
        ["generate-data", "--seed", -1],
    ])
    def test_bad_flag_built_config_is_config_error(self, tmp_path, capsys, argv):
        """Flags that build NoisyXorConfig or SgdConfig follow the config
        file's rule: a bad value exits 2, before any output is written."""
        out = tmp_path / "out"
        assert run([*argv, "--out-dir", out]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not out.exists()

    def test_sampler_flag_of_another_kind_starts_a_fresh_section(self, tmp_path, xor_config):
        """--sampler HMC on a config with an MH sampler section drops the MH
        keys; the same kind keeps the section."""
        out = tmp_path / "hmc"
        assert run([
            "sample", "--config", xor_config, "--sampler", "HMC", "--leapfrog-steps", 2,
            "--iterations", 150, "--out-dir", out,
        ]) == 0
        assert json.loads((out / "experiment.json").read_text())["sampler"] == {
            "kind": "HMC", "leapfrog_steps": 2,
        }
        assert json.loads((out / "chain_00.json").read_text())["sampler"] == "HMC"
        out = tmp_path / "mh"
        assert run(["sample", "--config", xor_config, "--sampler", "MH", "--iterations", 150, "--out-dir", out]) == 0
        assert json.loads((out / "experiment.json").read_text())["sampler"] == {
            "kind": "MH", "proposal_variance": 0.05,
        }

    def test_sampler_flags_without_config(self, tmp_path):
        """The built-in MH section gives way to --sampler HMC and its flags."""
        out = tmp_path / "out"
        assert run([
            "sample", "--dataset", "noisy-xor", "--sampler", "HMC", "--leapfrog-steps", 2,
            "--step-size", 0.1, "--num-chains", 1, "--iterations", 20, "--burnin", 5, "--tail", 10,
            "--out-dir", out,
        ]) == 0
        assert np.loadtxt(out / "chain_00.csv", delimiter=",").shape == (20, 9)

    def test_truncated_chain_is_io_error(self, tmp_path, xor_config, capsys):
        out = tmp_path / "chains"
        assert run(["sample", "--config", xor_config, "--out-dir", out]) == 0
        csv_path = out / "chain_01.csv"
        csv_path.write_text("".join(csv_path.read_text().splitlines(keepends=True)[:300]))
        assert run(["diagnose", "--chains", out / "chain_00.csv", csv_path]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io" and "300 rows" in err["message"]

    def test_missing_chain_file(self, tmp_path, capsys):
        assert run(["diagnose", "--chains", tmp_path / "nope.csv"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "io"

    def test_invalid_burnin(self, tmp_path, xor_config, capsys):
        assert run([
            "sample", "--config", xor_config, "--burnin", 400, "--out-dir", tmp_path,
        ]) == 2

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_config_error(self, tmp_path, xor_config, capsys, jobs):
        out = tmp_path / "out"
        assert run(["sample", "--config", xor_config, "--jobs", jobs, "--out-dir", out]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not out.exists()

    def test_predict_without_chains(self, tmp_path, xor_config, capsys):
        """An empty chain set is a config error, not a NaN accuracy."""
        pred = tmp_path / "pred"
        assert run(["predict", "--config", xor_config, "--out-dir", pred]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not (pred / "accuracy_summary.json").exists()

    def test_json_output_rejects_nan(self):
        with pytest.raises(ValueError):
            cli._json_text({"mean_accuracy": float("nan")})

    def test_output_dir_env(self, tmp_path, xor_config, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
        assert run(["generate-data", "--train-per-corner", 2, "--test-per-corner", 1]) == 0
        assert (env_dir / "noisy_xor_train.csv").exists()


#: Files that do not hold a JSON object.
NOT_AN_OBJECT = {"array": b"[1, 2]", "string": b'"x"', "null": b"null", "not JSON": b"{bad",
                 "not UTF-8": b"\xff{}"}


class TestMalformedJson:
    """A chain sidecar or a dataset manifest that is not a JSON object exits
    with its documented code, prints no table and writes no output."""

    @pytest.mark.parametrize("text", NOT_AN_OBJECT.values(), ids=NOT_AN_OBJECT.keys())
    @pytest.mark.parametrize("command", ["diagnose", "predict", "traces"])
    def test_malformed_sidecar_is_io_error(self, tmp_path, xor_config, capsys, command, text):
        chains = tmp_path / "chains"
        assert run(["sample", "--config", xor_config, "--out-dir", chains]) == 0
        paths = [chains / "chain_00.csv", chains / "chain_01.csv"]
        paths[1].with_suffix(".json").write_bytes(text)
        out = tmp_path / "out"
        argv = {
            "diagnose": ["diagnose", "--chains", *paths, "--out", out / "report.json"],
            "predict": ["predict", "--config", xor_config, "--chains", *paths, "--out-dir", out],
            "traces": ["traces", "--chains", *paths, "--coords", 0, "--out-dir", out],
        }[command]
        capsys.readouterr()
        assert run(argv) == 3
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "io" and "chain_01.json" in err["message"]
        assert captured.out == ""
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("text", NOT_AN_OBJECT.values(), ids=NOT_AN_OBJECT.keys())
    def test_malformed_manifest_is_config_error(self, tmp_path, capsys, text):
        data_dir = tmp_path / "data"
        assert run(["generate-data", "--out-dir", data_dir, "--train-per-corner", 2, "--test-per-corner", 1]) == 0
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(text)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([
            "sample", "--train", data_dir / "noisy_xor_train.csv", "--test", data_dir / "noisy_xor_test.csv",
            "--manifest", manifest, "--num-chains", 1, "--iterations", 10, "--burnin", 0, "--tail", 5,
            "--out-dir", out,
        ]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "manifest" in err["message"]
        assert not out.exists()


def rejects_chain(tmp_path, xor_config, capsys, command, edit, *pieces):
    """Sample two chains, apply edit to the second one's files and check
    that command exits 3 with category io and a message holding pieces,
    printing nothing on stdout and writing no output file."""
    chains = tmp_path / "chains"
    assert run(["sample", "--config", xor_config, "--out-dir", chains]) == 0
    paths = [chains / "chain_00.csv", chains / "chain_01.csv"]
    edit(paths[1])
    out = tmp_path / "out"
    argv = {
        "diagnose": ["diagnose", "--chains", *paths, "--out", out / "report.json"],
        "predict": ["predict", "--config", xor_config, "--chains", *paths, "--out-dir", out],
    }[command]
    capsys.readouterr()
    assert run(argv) == 3
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "io" and captured.out == ""
    assert all(piece in err["message"] for piece in pieces), err["message"]
    assert not out.exists() or list(out.iterdir()) == []


def edit_sidecar(update):
    """An edit of a chain's files that applies update to its sidecar's
    JSON object."""

    def edit(csv_path):
        meta_path = csv_path.with_suffix(".json")
        meta = json.loads(meta_path.read_text())
        update(meta)
        meta_path.write_text(json.dumps(meta))

    return edit


#: Sidecar fields set to a value of another JSON type.
WRONG_TYPES = {"burnin": "x", "seed": "s", "accepted": 1.5, "iterations": 400.0, "dim": "9",
               "crc32": True, "npy_crc32": None}

#: Sidecar fields set out of range, for chains of 400 rows.
OUT_OF_RANGE = {"burnin -3": ("burnin", -3), "burnin 400": ("burnin", 400), "accepted -1": ("accepted", -1),
                "accepted 1000000": ("accepted", 1000000), "iterations 0": ("iterations", 0),
                "dim 0": ("dim", 0)}


@pytest.mark.parametrize("command", ["diagnose", "predict"])
class TestSidecarRule:
    """A sidecar is current or its chain is rejected: a value of the wrong
    type or out of range, a missing or unknown key, and a missing .npy each
    exit 3 and name the sidecar or the file it misses."""

    @pytest.mark.parametrize("field,value", WRONG_TYPES.items(), ids=WRONG_TYPES.keys())
    def test_wrong_type(self, tmp_path, xor_config, capsys, command, field, value):
        edit = edit_sidecar(lambda meta: meta.update({field: value}))
        rejects_chain(tmp_path, xor_config, capsys, command, edit, "chain_01.json", f"metadata.{field} must be")

    @pytest.mark.parametrize("field,value", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
    def test_out_of_range(self, tmp_path, xor_config, capsys, command, field, value):
        edit = edit_sidecar(lambda meta: meta.update({field: value}))
        rejects_chain(tmp_path, xor_config, capsys, command, edit, "chain_01.json", f"{field} ({value})")

    @pytest.mark.parametrize("field", ["seed", "burnin", "config", "crc32", "npy_crc32"])
    def test_missing_key(self, tmp_path, xor_config, capsys, command, field):
        edit = edit_sidecar(lambda meta: meta.pop(field))
        rejects_chain(tmp_path, xor_config, capsys, command, edit, "chain_01.json",
                      f"missing metadata fields: ['{field}']")

    def test_unknown_key(self, tmp_path, xor_config, capsys, command):
        edit = edit_sidecar(lambda meta: meta.update(version=2))
        rejects_chain(tmp_path, xor_config, capsys, command, edit, "chain_01.json",
                      "unknown metadata fields: ['version']")

    def test_missing_copy(self, tmp_path, xor_config, capsys, command):
        def edit(csv_path):
            csv_path.with_suffix(".npy").unlink()

        rejects_chain(tmp_path, xor_config, capsys, command, edit, "chain_01.npy", "is missing")


#: Manifest fields set to a value of another JSON type, and an unknown key.
BAD_MANIFESTS = {"feature_columns 3": {"feature_columns": 3}, "feature_columns [1, 2]": {"feature_columns": [1, 2]},
                 "label_column 5": {"label_column": 5}, "label_mapping list": {"label_mapping": [0, 1]},
                 "unknown key": {"labels": "label"}}


@pytest.mark.parametrize("patch", BAD_MANIFESTS.values(), ids=BAD_MANIFESTS.keys())
def test_bad_manifest_field_is_config_error(tmp_path, capsys, patch):
    data_dir = tmp_path / "data"
    assert run(["generate-data", "--out-dir", data_dir, "--train-per-corner", 2, "--test-per-corner", 1]) == 0
    manifest = data_dir / "noisy_xor_manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), **patch}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([
        "sample", "--train", data_dir / "noisy_xor_train.csv", "--test", data_dir / "noisy_xor_test.csv",
        "--manifest", manifest, "--num-chains", 1, "--iterations", 10, "--burnin", 0, "--tail", 5,
        "--out-dir", out,
    ]) == 2
    err = json.loads(capsys.readouterr().err)
    (key,) = patch
    assert err["error"] == "config" and "manifest" in err["message"] and key in err["message"]
    assert not out.exists()


class TestJsonRoundTrip:
    """Every JSON file the toolkit ships or writes loads through its typed
    reader, and a sidecar written back from its dataclass is the file."""

    @pytest.mark.parametrize("name", data.VENDORED_DATASETS)
    def test_vendored_manifest(self, name):
        manifest = data.vendored_manifest(name)
        assert (manifest.dataset, manifest.standardized, len(manifest.feature_columns)) == (name, True, 6)

    def test_generated_manifest(self, tmp_path):
        assert run(["generate-data", "--out-dir", tmp_path, "--train-per-corner", 2, "--test-per-corner", 1]) == 0
        manifest = data.read_manifest(tmp_path / "noisy_xor_manifest.json")
        assert manifest.feature_columns == ("x1", "x2") and manifest.generator["train_per_corner"] == 2

    @pytest.mark.parametrize("sampler", ["MH", "HMC", "PP"])
    def test_written_sidecar(self, tmp_path, xor_config, sampler):
        assert run(["sample", "--config", xor_config, "--out-dir", tmp_path, "--sampler", sampler,
                    "--iterations", 60, "--burnin", 10, "--tail", 10]) == 0
        for path in sorted(tmp_path.glob("chain_*.json")):
            meta = chainio.read_metadata(path)
            assert meta.sampler == sampler and meta.text() == path.read_text()


class TestForkedWorkers:
    """A failing or killed --jobs worker: the command fails as --jobs 1
    would, and each chain's files are complete or absent."""

    @pytest.mark.parametrize("dies", ["writing", "placing"])
    def test_killed_worker_leaves_no_partial_chain(self, tmp_path, xor_config, monkeypatch, capsys, dies):
        """Over the chains of an earlier run at another seed, the worker of
        chain 1 is killed once its first block is in its temporary files,
        or once its CSV is renamed into place. The parent deletes what is
        left of chain 1's new files: its earlier files stay whole, or, once
        the CSV was replaced, none is left. Chain 0's worker still places
        its chain."""
        out = tmp_path / "out"
        assert run(["sample", "--config", xor_config, "--out-dir", out, "--seed", 4]) == 0
        capsys.readouterr()
        earlier = {name: (out / name).read_bytes() for name in os.listdir(out) if name.startswith("chain_01")}
        parent = os.getpid()

        def die_in_worker_of(name):
            if os.getpid() != parent and name == "chain_01.csv":
                os.kill(os.getpid(), signal.SIGKILL)

        if dies == "writing":
            real_call = chainio.ChainWriter.__call__

            def call_then_die(writer, block):
                real_call(writer, block)
                die_in_worker_of(writer._paths[0].name)

            monkeypatch.setattr(chainio.ChainWriter, "__call__", call_then_die)
        else:
            real_replace = os.replace

            def replace_then_die(source, target):
                real_replace(source, target)
                die_in_worker_of(os.path.basename(target))

            monkeypatch.setattr(os, "replace", replace_then_die)
        assert run(["sample", "--config", xor_config, "--out-dir", out, "--jobs", 2]) == 1
        err = json.loads(capsys.readouterr().err)
        message = f"the worker of chains [1] was killed by signal 9 ({signal.strsignal(signal.SIGKILL)})"
        assert err == {"error": "internal", "message": message}
        left = {name: (out / name).read_bytes() for name in os.listdir(out) if name.startswith("chain_01")}
        assert left == (earlier if dies == "writing" else {})
        assert sorted(name for name in os.listdir(out) if not name.startswith("chain_01")) == [
            "chain_00.csv", "chain_00.json", "chain_00.npy", "experiment.json"]
        assert load_chain(out / "chain_00.csv", out / "chain_00.json").seed == samplers.derive_chain_seed(3, 0)
        if dies == "writing":
            assert load_chain(out / "chain_01.csv", out / "chain_01.json").seed == samplers.derive_chain_seed(4, 1)

    @pytest.mark.parametrize("error,code,category", [
        (SamplerStartupError("log-target is nan at an initial state"), 5, "sampler"),
        (OSError(28, "No space left on device"), 3, "io"),
    ])
    def test_worker_error_exits_as_in_one_process(self, tmp_path, xor_config, monkeypatch, capsys,
                                                  error, code, category):
        """The group of chain 1 writes a block, then raises: at --jobs 2 the
        command exits with the code and error line of --jobs 1, and only the
        other group's chain is left."""
        real_run, failing_seed = samplers.run_posterior_chains, samplers.derive_chain_seed(3, 1)

        def fail_after_first_block(*args, sink, **kwargs):
            if failing_seed not in args[5]:
                return real_run(*args, sink=sink, **kwargs)
            for write in sink:
                write(np.zeros((3, 9)))
            raise error

        monkeypatch.setattr(samplers, "run_posterior_chains", fail_after_first_block)
        errors = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run(["sample", "--config", xor_config, "--out-dir", out, "--jobs", jobs]) == code
            errors[jobs] = json.loads(capsys.readouterr().err)
            assert all(not name.startswith(".") and not name.startswith("chain_01") for name in os.listdir(out))
        assert errors[1] == errors[2] == {"error": category, "message": str(error)}
        assert os.listdir(tmp_path / "jobs1") == []
        assert sorted(os.listdir(tmp_path / "jobs2")) == ["chain_00.csv", "chain_00.json", "chain_00.npy"]

    def test_unpicklable_worker_error_is_reported_by_name(self, tmp_path, xor_config, monkeypatch, capsys):
        """A worker whose exception cannot be pickled, here one of a local
        class, reports it as a RuntimeError that names it."""
        class LocalError(Exception):
            pass

        def fail(*args, sink, **kwargs):
            raise LocalError("no state")

        monkeypatch.setattr(samplers, "run_posterior_chains", fail)
        out = tmp_path / "out"
        assert run(["sample", "--config", xor_config, "--out-dir", out, "--jobs", 2]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "internal", "message": "LocalError: no state"}
        assert os.listdir(out) == []

    def test_jobs_need_fork(self, tmp_path, xor_config, monkeypatch, capsys):
        monkeypatch.delattr(os, "fork")
        out = tmp_path / "out"
        assert run(["sample", "--config", xor_config, "--out-dir", out, "--jobs", 2]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not out.exists()
        assert run(["sample", "--config", xor_config, "--out-dir", out, "--jobs", 1]) == 0


def test_cli_import_leaves_scipy_unloaded():
    """Neither scipy nor OpenSSL's _hashlib (each a few MB of resident
    memory in every command) is loaded by the CLI, nor numpy.fft where
    numpy loads it on first use (about 0.4 MB and 1.6 ms)."""
    code = (
        "import sys, numpy; own = set(sys.modules); import bayesmlp.cli; "
        "print([m for m in ('scipy', '_hashlib') if m in sys.modules]"
        " + [m for m in ('numpy.fft',) if m in set(sys.modules) - own])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def run_python(*argv, code=None, check=True):
    """A fresh interpreter on this test session's import path, running
    code with argv, or ``-m bayesmlp.cli`` with argv when code is None."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    head = ["-m", "bayesmlp.cli"] if code is None else ["-c", code]
    argv = [sys.executable, *head, *map(str, argv)]
    return subprocess.run(argv, env=env, capture_output=True, text=True, check=check)


#: Prints, as a JSON last line, the exit code of cli.main on the argv and
#: the modules it loaded.
MODULES_AFTER_COMMAND = (
    "import json, sys; from bayesmlp import cli; before = set(sys.modules); "
    "code = cli.main(sys.argv[1:]); "
    "print(json.dumps([code, sorted(set(sys.modules) - before)]))"
)


class TestLazyLoading:
    """Each command loads only the bayesmlp modules it runs."""

    def test_package_import_loads_no_submodule(self):
        code = (
            "import json, sys, bayesmlp; "
            "loaded = sorted(m for m in sys.modules if m.startswith('bayesmlp.')); "
            "listed = set(dir(bayesmlp)) >= set(bayesmlp.__all__); "
            "missing = [n for n in bayesmlp.__all__ if not hasattr(bayesmlp, n)]; "
            "print(json.dumps([loaded, listed, missing]))"
        )
        assert json.loads(run_python(code=code).stdout) == [[], True, []]

    def test_exports_come_from_their_modules(self):
        import bayesmlp
        from bayesmlp import chainio, samplers

        assert bayesmlp.Chain is chainio.Chain is samplers.Chain
        with pytest.raises(AttributeError):
            bayesmlp.no_such_name

    @pytest.fixture
    def chains(self, tmp_path):
        rng = np.random.default_rng(131)
        paths = []
        for i in range(2):
            path = tmp_path / f"c{i}.csv"
            chain = Chain(rng.standard_normal((300, 9)), burnin=50, seed=i, accepted=0, sampler_tag="MH")
            save_chain(chain, path, path.with_suffix(".json"))
            paths.append(path)
        return paths

    def test_diagnose_loads_no_model_sampler_predictive_or_pool(self, chains):
        result = run_python("diagnose", "--chains", *chains, code=MODULES_AFTER_COMMAND)
        code, loaded = json.loads(result.stdout.splitlines()[-1])
        assert code == 0
        assert "bayesmlp.diagnostics" in loaded
        unwanted = ["bayesmlp.mlp", "bayesmlp.samplers", "bayesmlp.predictive", "bayesmlp.data",
                    "concurrent.futures"]
        assert [m for m in unwanted if m in loaded] == []

    def test_sample_jobs_loads_no_pool(self, tmp_path, xor_config):
        """sample --jobs forks its workers itself: its parent loads no
        process pool."""
        result = run_python(
            "sample", "--config", xor_config, "--out-dir", tmp_path / "chains", "--jobs", 2,
            code=MODULES_AFTER_COMMAND,
        )
        code, loaded = json.loads(result.stdout.splitlines()[-1])
        assert code == 0
        assert "bayesmlp.samplers" in loaded
        assert [m for m in loaded if m.split(".")[0] in ("concurrent", "multiprocessing")] == []

    def test_predict_loads_no_diagnostics(self, tmp_path, xor_config, chains):
        result = run_python(
            "predict", "--config", xor_config, "--chains", *chains, "--out-dir", tmp_path / "pred",
            code=MODULES_AFTER_COMMAND,
        )
        code, loaded = json.loads(result.stdout.splitlines()[-1])
        assert code == 0
        assert "bayesmlp.predictive" in loaded
        assert "bayesmlp.diagnostics" not in loaded

    def test_sample_loads_no_predictive(self, tmp_path, xor_config):
        result = run_python(
            "sample", "--config", xor_config, "--out-dir", tmp_path / "chains",
            code=MODULES_AFTER_COMMAND,
        )
        code, loaded = json.loads(result.stdout.splitlines()[-1])
        assert code == 0
        assert "bayesmlp.samplers" in loaded
        assert [m for m in ("bayesmlp.predictive", "bayesmlp.diagnostics") if m in loaded] == []


class TestProcessEntry:
    """``python -m bayesmlp.cli`` freezes the heap after the command
    returns; every output is complete by then."""

    def test_sample_then_diagnose(self, tmp_path, xor_config):
        out = tmp_path / "chains"
        sample = run_python("sample", "--config", xor_config, "--out-dir", out)
        paths = sample.stdout.split()
        assert paths == [str(out / f"chain_{i:02d}.csv") for i in range(2)]
        chains = [load_chain(p, out / f"chain_{i:02d}.json") for i, p in enumerate(paths)]
        assert [len(chain) for chain in chains] == [400, 400]
        report = tmp_path / "report.json"
        run_python("diagnose", "--chains", *paths, "--out", report)
        expected = diagnostics_report([chain.draws for chain in chains], burnin=100)
        assert report.read_text() == cli._json_text(expected)

    def test_error_exit_code(self, tmp_path):
        result = run_python("diagnose", "--chains", tmp_path / "missing.csv", check=False)
        assert result.returncode == 3
        assert json.loads(result.stderr)["error"] == "io"
