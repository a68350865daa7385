"""Experiment command line: data generation, multi-chain sampling runs,
diagnostics tables, prediction reports, grid heatmap and plot-data emission.

A run is described by a JSON config document; command-line flags override
config fields (flags > config file > built-in defaults). Each section is
built from the dataclass it configures, whose field defaults are the
section's defaults. Defaults mirror the reference protocol: 10 chains,
110,000 iterations, 10,000 burn-in, 10,000-draw predictive tail, prior
variance 10. Every command is deterministic given (config, seed): chain i
draws its private RNG stream from seed XOR i.

Every JSON file a command reads is built under ``schema``'s one type rule:
a config file or ``--manifest`` that breaks it is a config error (exit 2);
a chain sidecar that breaks it, or is not current, an I/O error (exit 3).
Chain files are read and written through ``chainio`` alone.

``sample --jobs N`` forks one worker per contiguous group of chains
(POSIX ``fork`` only); the parent samples no chain, waits on the workers
and fails as ``--jobs 1`` would; a worker that dies leaves no partial chain.

Each command imports the bayesmlp modules it runs when it runs, so
``diagnose`` never loads the model, the samplers or the predictive. The
process entry (``entry``) freezes the heap once the command returns, so
the interpreter's exit skips a full collection over everything the imports
made.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .schema import ConfigError, from_section, json_file, json_value

#: Environment variable naming the default output directory.
OUTPUT_DIR_ENV = "BAYESMLP_OUTPUT_DIR"


def _error_categories() -> tuple:
    """Exit codes by error category; argparse itself exits with 2 on bad
    usage. Built on the error path, so a command that succeeds loads no
    module only for its error types."""
    from . import chainio, diagnostics, mlp, samplers

    return (
        (ConfigError, "config", 2),
        ((FileNotFoundError, OSError, chainio.ChainFileError), "io", 3),
        (mlp.DimensionError, "dimension", 4),
        (samplers.SamplerStartupError, "sampler", 5),
        ((diagnostics.DegenerateChainError, diagnostics.EstimatorError), "diagnostics", 6),
        (ValueError, "invalid-input", 4),
    )


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


@dataclass(frozen=True)
class CsvFiles:
    """A dataset section naming train and test CSV files. A manifest's
    feature_columns, label_column and label_mapping take precedence over the
    section's; ``name``, when it names no known dataset, is a label only."""

    train: str
    test: str
    manifest: str | None = None
    feature_columns: tuple[str, ...] | None = None
    label_column: str = "label"
    label_mapping: dict[str, int] = field(default_factory=lambda: {"0": 0, "1": 1})
    name: str | None = None


#: Sampler kind -> the name of its config class in samplers.
_SAMPLER_KINDS = {"MH": "MhConfig", "HMC": "HmcConfig", "PP": "PpConfig"}


def _sampler_kind(doc: dict) -> str:
    kind = doc.get("kind", "MH")
    if not isinstance(kind, str) or kind.upper() not in _SAMPLER_KINDS:
        raise ConfigError(f"unknown sampler kind {kind!r}; expected MH, HMC or PP")
    return kind.upper()


def _dataset_source(doc: dict):
    """What a dataset section names: a NoisyXorConfig, the name of a
    vendored dataset, or CsvFiles."""
    from . import data

    name = json_value("dataset", doc, dict).get("name")
    if name == "noisy-xor":
        return from_section(data.NoisyXorConfig, "dataset", _without(doc, "name"))
    if name in data.VENDORED_DATASETS:
        if set(doc) != {"name"}:
            raise ConfigError(f"dataset {name} takes no fields besides name, got {sorted(doc)}")
        return name
    if "train" not in doc or "test" not in doc:
        raise ConfigError(
            "dataset config needs a known name (noisy-xor, penguins, hawks) "
            "or explicit train/test file paths"
        )
    return from_section(CsvFiles, "dataset", doc)


@dataclass
class ExperimentConfig:
    """One sampling experiment: dataset, model, sampler and run protocol.

    The sections stay the documents the config gave, so a run records its
    config as written; validation builds from them ``arch`` and
    ``sampler_config``, attributes that no config key sets.
    """

    dataset: dict = field(default_factory=dict)
    architecture: dict = field(default_factory=lambda: {"layer_widths": [2, 2, 1]})
    prior_variance: float = 10.0
    sampler: dict = field(default_factory=dict)
    num_chains: int = 10
    iterations: int = 110000
    burnin: int = 10000
    tail: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.num_chains < 1:
            raise ConfigError("num_chains must be >= 1")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if not 0 <= self.burnin < self.iterations:
            raise ConfigError("burnin must satisfy 0 <= burnin < iterations")
        if not 0 < self.tail <= self.iterations:
            raise ConfigError("tail must satisfy 0 < tail <= iterations")
        if not self.prior_variance > 0:
            raise ConfigError("prior_variance must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        _dataset_source(self.dataset)
        self.arch = build_architecture(self.architecture)
        self.sampler_config = build_sampler_config(self.sampler)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return from_section(cls, "config", doc)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def build_architecture(doc: dict) -> mlp.Architecture:
    from . import mlp

    return from_section(mlp.Architecture, "architecture", doc)


def build_sampler_config(doc: dict):
    from . import samplers

    config_class = getattr(samplers, _SAMPLER_KINDS[_sampler_kind(doc)])
    return from_section(config_class, "sampler", _without(doc, "kind"))


def resolve_dataset(doc: dict) -> tuple[data.LabeledDataset, data.LabeledDataset]:
    """Materialize the (train, test) pair a config refers to."""
    from . import data

    source = _dataset_source(doc)
    if isinstance(source, data.NoisyXorConfig):
        return data.generate_noisy_xor(source)
    if isinstance(source, str):
        return data.load_vendored(source)
    manifest = data.Manifest() if source.manifest is None else data.read_manifest(source.manifest)
    # a field the manifest leaves out is the section's
    manifest = replace(manifest, **{key: getattr(source, key) for key in ("feature_columns", "label_column",
                                    "label_mapping") if getattr(manifest, key) is None})
    if manifest.feature_columns is None:
        raise ConfigError("a train/test dataset needs feature_columns, in its section or its manifest")
    return data.load_pair(source.train, source.test, manifest)


def _given(args, *names) -> dict:
    """The flags among names that were given on the command line."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _load_config(args) -> ExperimentConfig:
    """The config file's document with the flags merged in, validated once."""
    doc = json_file("config", args.config) if args.config else {}
    doc.update(_given(args, "num_chains", "iterations", "burnin", "tail", "seed", "prior_variance"))
    if args.arch:
        try:
            widths = [int(w) for w in args.arch.split(",")]
        except ValueError:
            raise ConfigError(f"--arch takes comma-separated layer widths, got {args.arch!r}") from None
        architecture = json_value("architecture", doc.get("architecture", {}), dict)
        doc["architecture"] = {**architecture, "layer_widths": widths}
    sampler = json_value("sampler", doc.get("sampler", {}), dict)
    if getattr(args, "sampler", None) and args.sampler != _sampler_kind(sampler):
        sampler = {"kind": args.sampler}  # another kind starts from its own defaults
    doc["sampler"] = {**sampler, **_given(args, "proposal_variance", "leapfrog_steps", "step_size")}
    if args.dataset:
        doc["dataset"] = {"name": args.dataset}
    files = _given(args, "train", "test", "manifest")
    if files:
        dataset = json_value("dataset", doc.get("dataset", {}), dict)
        # file flags replace a named dataset and its settings
        doc["dataset"] = {**({} if "name" in dataset else dataset), **files}
    return ExperimentConfig.from_dict(doc)


def _json_text(doc, indent: int | None = 2) -> str:
    """A JSON document plus newline. NaN and infinities raise ValueError
    rather than being written as tokens that strict JSON parsers reject."""
    return json.dumps(doc, indent=indent, allow_nan=False) + "\n"


def _out_dir(args) -> Path:
    path = Path(args.out_dir or os.environ.get(OUTPUT_DIR_ENV, "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _chain_paths(out_dir: Path, index: int) -> tuple[Path, Path]:
    from . import chainio

    csv_path = out_dir / f"chain_{index:02d}.csv"
    return csv_path, chainio.companion_paths(csv_path)[0]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate_data(args) -> int:
    from . import data

    flags = _given(args, *(f.name for f in fields(data.NoisyXorConfig)))
    cfg = from_section(data.NoisyXorConfig, "generate-data", flags)
    out_dir = _out_dir(args)
    train, test = data.generate_noisy_xor(cfg)
    names = ("x1", "x2")
    data.write_dataset_csv(train, out_dir / "noisy_xor_train.csv", names)
    data.write_dataset_csv(test, out_dir / "noisy_xor_test.csv", names)
    manifest = {
        "dataset": "noisy-xor",
        "feature_columns": list(names),
        "label_column": "label",
        "label_mapping": {"0": 0, "1": 1},
        "generator": asdict(cfg),
    }
    (out_dir / "noisy_xor_manifest.json").write_text(_json_text(manifest))
    print(f"wrote {len(train)} train and {len(test)} test rows to {out_dir}")
    return 0


def _sample_worker(
    cfg: ExperimentConfig, train: data.LabeledDataset, out_dir: Path, indices: list[int]
):
    """Sample the chains of the given indices in lockstep, each streamed
    into its files a block of rows at a time."""
    from . import chainio, samplers

    seeds = [samplers.derive_chain_seed(cfg.seed, index) for index in indices]
    paths = [_chain_paths(out_dir, index) for index in indices]
    run = functools.partial(samplers.run_posterior_chains, cfg.arch, train, cfg.prior_variance,
                            cfg.sampler_config, cfg.iterations, seeds, burnin=cfg.burnin)
    chainio.stream_chains(paths, cfg.iterations, run, config=cfg.to_dict())


def _fork_workers(
    cfg: ExperimentConfig, train: data.LabeledDataset, out_dir: Path, groups: list[list[int]]
):
    """Sample each group of chains in a child forked from this process,
    which samples none itself, and wait on the children in group order.

    A child inherits cfg and train, calls _sample_worker through this
    module's global and leaves through os._exit: 0, or 1 once it has
    pickled its exception (without its traceback) into a pipe. The first
    failing group's exception is raised here once every child has exited.
    A child that dies without one, such as by a signal, fails as a
    RuntimeError. What a failed child left of its chains is deleted.
    """
    import pickle

    from . import chainio

    gc.freeze()  # the children's collections then leave the inherited heap's pages shared
    children, failures = [], []
    try:
        for group in groups:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _sample_worker(cfg, train, out_dir, group)
                    code = 0
                except BaseException as exc:
                    try:
                        report = pickle.dumps(exc)
                    except Exception:  # such as an argument that cannot be pickled
                        report = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
                    with open(write, "wb") as pipe:
                        pipe.write(report)
                finally:
                    os._exit(code)
            os.close(write)
            children.append((group, pid, read))
    finally:
        for group, pid, read in children:
            with open(read, "rb") as pipe:
                report = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status:
                for index in group:
                    chainio.discard_dead_writer(*_chain_paths(out_dir, index), pid)
                failures.append((group, status, report))
        gc.unfreeze()
    if failures:
        group, status, report = failures[0]
        if report:
            raise pickle.loads(report)
        import signal

        how = (f"was killed by signal {-status} ({signal.strsignal(-status)})" if status < 0
               else f"exited with {status}")
        raise RuntimeError(f"the worker of chains {group} {how}")


def cmd_sample(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if args.jobs > 1 and not hasattr(os, "fork"):
        raise ConfigError("--jobs above 1 needs os.fork, which this platform lacks")
    cfg = _load_config(args)
    train, _ = resolve_dataset(cfg.dataset)
    out_dir = _out_dir(args)
    # contiguous groups of chain indices, one per worker
    groups = np.array_split(np.arange(cfg.num_chains), min(args.jobs, cfg.num_chains))
    groups = [group.tolist() for group in groups]
    if len(groups) > 1:
        _fork_workers(cfg, train, out_dir, groups)
    else:
        _sample_worker(cfg, train, out_dir, groups[0])
    (out_dir / "experiment.json").write_text(_json_text(cfg.to_dict()))
    for index in range(cfg.num_chains):
        print(_chain_paths(out_dir, index)[0])
    return 0


def _chain_rows(paths, start: int = 0) -> typing.Iterator[chainio.ChainRows]:
    """Rows draws[start:] of each chain, checked against its sidecar when
    one sits beside it, opened one chain at a time as the caller asks."""
    from . import chainio

    for path in paths:
        meta, _ = chainio.companion_paths(path)
        yield chainio.ChainRows(path, meta if meta.exists() else None, start=start)


def _recorded_burnin(path):
    """The burn-in the sidecar beside a chain records: 0 without one, and
    for one that cannot be read, which the chain's load then rejects."""
    from . import chainio

    try:
        return chainio.read_metadata(chainio.companion_paths(path)[0]).burnin
    except (OSError, chainio.ChainFileError):
        return 0


def cmd_diagnose(args) -> int:
    from . import diagnostics

    burnin = args.burnin
    if burnin is None:
        # read before any draws, so no chain's burn-in rows are loaded
        burnin = max(_recorded_burnin(path) for path in args.chains)
    elif burnin < 0:
        raise ValueError(f"burn-in must be >= 0, got {burnin}")
    # each chain is reduced to its summary, read from its files block by
    # block, before the next one is opened
    groups: dict[str, list[diagnostics.ChainSummary]] = {}
    empty = False
    for rows in _chain_rows(args.chains, start=burnin):
        empty = empty or len(rows) == 0
        summary = diagnostics.summarize_chain(rows, burnin, rows.first)
        groups.setdefault(rows.sampler_tag, []).append(summary)
        del rows  # a parsed CSV is freed before the next chain opens
    if empty and args.burnin is not None:
        raise ValueError("burn-in leaves no draws")
    # every report is made before the table starts, so a failure prints none of it
    reports = {tag: diagnostics.report_from_summaries(group) for tag, group in groups.items()}
    out = reports if len(reports) > 1 else next(iter(reports.values()))
    text = _json_text(out)
    print(f"{'Sampler':<10}{'PSRF':>10}{'ESS':>12}")
    for tag, report in reports.items():
        print(f"{tag:<10}{report['psrf']:>10.4f}{report['ess_mean']:>12.1f}")
    if args.out:
        Path(args.out).write_text(text)
    return 0


def _predictive_setup(args):
    cfg = _load_config(args)
    _, test = resolve_dataset(cfg.dataset)
    return cfg, cfg.arch, test


def _tail_reports(paths, tail: int, arch, test) -> list[predictive.PredictionReport]:
    """The posterior predictive report of each chain's last tail draws, one
    chain loaded at a time. Every chain is evaluated before the caller
    writes a file, so a chain that fails leaves no output."""
    from . import predictive

    reports = []
    for rows in _chain_rows(paths, start=-tail):
        reports.append(predictive.accuracy(arch, rows.load().draws, test)[1])
        del rows  # a parsed CSV is freed before the next chain opens
    return reports


def cmd_predict(args) -> int:
    from . import predictive

    if args.prior_baseline == bool(args.chains):
        raise ConfigError("predict needs --chains or --prior-baseline, not both")
    cfg, arch, test = _predictive_setup(args)
    out_dir = _out_dir(args)
    if args.prior_baseline:
        acc = predictive.prior_predictive_accuracy(
            arch, cfg.prior_variance, test, args.num_draws, cfg.seed
        )
        print(f"prior baseline accuracy {100 * acc:.2f}")
        (out_dir / "prior_baseline.json").write_text(
            _json_text({"accuracy": acc, "num_draws": args.num_draws, "seed": cfg.seed}, indent=None)
        )
        return 0
    reports = _tail_reports(args.chains, cfg.tail, arch, test)
    accs = [report.accuracy for report in reports]
    mean_acc = float(np.mean(accs))
    summary = _json_text({"per_chain_accuracy": accs, "mean_accuracy": mean_acc})
    for index, report in enumerate(reports):
        path = out_dir / f"predictions_chain_{index:02d}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "true_label", "predicted_label", "prob_predicted", "prob_true"])
            for i, (y, yhat, pp, pt) in enumerate(
                zip(test.labels, report.predicted, report.prob_predicted, report.prob_true)
            ):
                writer.writerow([i, int(y), int(yhat), f"{pp:.17g}", f"{pt:.17g}"])
    (out_dir / "accuracy_summary.json").write_text(summary)
    print(f"mean accuracy {100 * mean_acc:.2f}")
    return 0


def cmd_grid(args) -> int:
    from . import predictive

    cfg, arch, _ = _predictive_setup(args)
    out_dir = _out_dir(args)
    chain = next(_chain_rows([args.chain], start=-cfg.tail)).load()
    bounds = predictive.DEFAULT_GRID_BOUNDS if args.bounds is None else tuple(args.bounds)
    resolution = predictive.DEFAULT_GRID_RESOLUTION if args.resolution is None else args.resolution
    grid = predictive.grid_predictive(arch, chain.draws, bounds, resolution)
    truth = predictive.xor_truth_grid(bounds, resolution)
    np.savetxt(out_dir / "grid.csv", grid, fmt="%.17g", delimiter=",")
    np.savetxt(out_dir / "grid_truth.csv", truth, fmt="%d", delimiter=",")
    print(f"wrote {resolution}x{resolution} grid to {out_dir}")
    return 0


def cmd_traces(args) -> int:
    from . import chainio

    # every chain is checked, and one without a sidecar parsed whole, before
    # any draw is read; the requested columns are then read from all chains
    # together, in blocks of chainio.block_rows, and written as they come
    chains = list(_chain_rows(args.chains))
    burnin = args.burnin if args.burnin is not None else max(rows.burnin for rows in chains)
    length = min(len(rows) for rows in chains)
    if burnin < 0:
        raise ValueError(f"burn-in must be >= 0, got {burnin}")
    if burnin >= length:
        raise ValueError("burn-in leaves no draws")
    dim = chains[0].dim
    if any(rows.dim != dim for rows in chains):
        raise ValueError("all chains must share the same dimension")
    for coord in args.coords:
        if not 0 <= coord < dim:
            raise ValueError(f"coordinate {coord} outside [0, {dim})")
    out_dir = _out_dir(args)
    header = ["iteration", "burnin"] + [
        f"chain{ci}_coord{coord}" for ci in range(len(chains)) for coord in args.coords
    ]
    size = chainio.block_rows(dim * len(chains))
    draws = zip(*((row for block in rows.blocks(size) for row in block[:, args.coords].tolist())
                  for rows in chains))
    path = out_dir / "traces.csv"
    try:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for it, values in enumerate(draws):
                writer.writerow([it, int(it < burnin)] + [f"{v:.17g}" for row in values for v in row])
    except BaseException:
        path.unlink(missing_ok=True)  # a chain that fails while it is read leaves no traces
        raise
    print(path)
    return 0


def cmd_boxplot_data(args) -> int:
    cfg, arch, test = _predictive_setup(args)
    out_dir = _out_dir(args)
    accs = [report.accuracy for report in _tail_reports(args.chains, cfg.tail, arch, test)]
    path = out_dir / "boxplot_accuracies.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "accuracy"])
        for index, acc in enumerate(accs):
            writer.writerow([index, f"{acc:.17g}"])
    print(path)
    return 0


def cmd_sgd_ensemble(args) -> int:
    from . import samplers

    cfg = _load_config(args)
    flags = _given(args, *(f.name for f in fields(samplers.SgdConfig)))
    sgd_cfg = from_section(samplers.SgdConfig, "sgd-ensemble", flags)
    train, test = resolve_dataset(cfg.dataset)
    out_dir = _out_dir(args)
    solutions, accuracies = samplers.sgd_ensemble(
        cfg.arch, train, test, sgd_cfg, cfg.seed, prior_variance=cfg.prior_variance
    )
    np.savetxt(out_dir / "sgd_solutions.csv", np.array(solutions), fmt="%.17g", delimiter=",")
    np.savetxt(out_dir / "sgd_accuracies.csv", np.array(accuracies), fmt="%.17g", delimiter=",")
    print(f"accepted {len(solutions)} solutions, mean accuracy {100 * float(np.mean(accuracies)):.2f}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesmlp",
        description="MCMC sampling, diagnostics and posterior predictive "
        "classification for small MLPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out-dir", default=None, help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
        p.add_argument("--config", help="experiment config JSON; flags override its fields")
        p.add_argument("--arch", help="layer widths, e.g. 2,2,1")
        p.add_argument("--dataset", help="named dataset: noisy-xor, penguins, hawks")
        p.add_argument("--train", help="training CSV path")
        p.add_argument("--test", help="test CSV path")
        p.add_argument("--manifest", help="encoding manifest JSON path")
        p.add_argument("--prior-variance", dest="prior_variance", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tail", type=int, default=None, help="predictive tail length")
        p.add_argument("--burnin", type=int, default=None)

    p = sub.add_parser("generate-data", help="simulate a noisy XOR dataset")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--train-per-corner", type=int, default=None)
    p.add_argument("--test-per-corner", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("sample", help="realize posterior chains")
    add_common(p)
    p.add_argument("--sampler", choices=["MH", "HMC", "PP"], default=None)
    p.add_argument("--proposal-variance", dest="proposal_variance", type=float, default=None)
    p.add_argument("--leapfrog-steps", dest="leapfrog_steps", type=int, default=None)
    p.add_argument("--step-size", dest="step_size", type=float, default=None)
    p.add_argument("--num-chains", dest="num_chains", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers, each running a contiguous group of chains in lockstep")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("diagnose", help="PSRF and ESS over realized chains")
    p.add_argument("--chains", nargs="+", required=True)
    p.add_argument("--burnin", type=int, default=None)
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("predict", help="posterior predictive accuracy reports")
    add_common(p)
    p.add_argument("--chains", nargs="*", default=[])
    p.add_argument("--prior-baseline", action="store_true")
    p.add_argument("--num-draws", type=int, default=10000, help="prior draws for the baseline")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("grid", help="predictive probability heatmap data")
    add_common(p)
    p.add_argument("--chain", required=True)
    # None: cmd_grid fills in predictive's defaults, so the parser loads no predictive
    p.add_argument("--bounds", nargs=2, type=float, default=None)
    p.add_argument("--resolution", type=int, default=None)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("traces", help="traceplot data for chosen coordinates")
    p.add_argument("--chains", nargs="+", required=True)
    p.add_argument("--coords", nargs="+", type=int, required=True)
    p.add_argument("--burnin", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_traces)

    p = sub.add_parser("boxplot-data", help="per-chain accuracy list")
    add_common(p)
    p.add_argument("--chains", nargs="+", required=True)
    p.set_defaults(func=cmd_boxplot_data)

    p = sub.add_parser("sgd-ensemble", help="train an accepted-solution ensemble")
    add_common(p)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--accept-threshold", type=float, default=None)
    p.add_argument("--ensemble-size", type=int, default=None)
    p.add_argument("--max-sessions", type=int, default=None)
    p.set_defaults(func=cmd_sgd_ensemble)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - map to categorized exit codes
        for types, category, code in _error_categories():
            if isinstance(exc, types):
                sys.stderr.write(_json_text({"error": category, "message": str(exc)}, indent=None))
                return code
        sys.stderr.write(_json_text({"error": "internal", "message": str(exc)}, indent=None))
        return 1


def entry() -> int:
    """Process entry of the ``bayesmlp`` script and of ``python -m
    bayesmlp.cli``: main, then gc.freeze, so that the interpreter's exit
    skips the full collections over every object the command's imports
    made. Every file is closed by ``with`` before main returns, so no
    output waits on a finalizer that the frozen heap would never run."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
