"""Experiment command line: data generation, multi-chain sampling runs,
diagnostics tables, prediction reports, grid heatmap and plot-data emission.

A run is described by a JSON config document; command-line flags override
config fields (flags > config file > built-in defaults). Defaults mirror
the reference protocol: 10 chains, 110,000 iterations, 10,000 burn-in,
10,000-draw predictive tail, prior variance 10.

Every command is deterministic given (config, seed): chain i draws its
private RNG stream from seed XOR i, so rerunning a config reproduces all
chain files byte for byte.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import chainio, data, diagnostics, mlp, predictive, samplers

#: Environment variable naming the default output directory.
OUTPUT_DIR_ENV = "BAYESMLP_OUTPUT_DIR"


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# exit codes by error category; argparse itself exits with 2 on bad usage
_ERROR_CATEGORIES = (
    (ConfigError, "config", 2),
    ((FileNotFoundError, OSError, chainio.ChainFileError), "io", 3),
    (mlp.DimensionError, "dimension", 4),
    (samplers.SamplerStartupError, "sampler", 5),
    ((diagnostics.DegenerateChainError, diagnostics.EstimatorError), "diagnostics", 6),
    (ValueError, "invalid-input", 4),
)


#: Optional keys of each config section with their defaults. A section
#: accepts these keys and its required ones; the builders read every value
#: from the section merged over these defaults, so the keys accepted and the
#: keys read cannot drift apart.
SAMPLER_DEFAULTS = {
    "MH": {"proposal_variance": 0.02},
    "HMC": {"leapfrog_steps": 10, "step_size": 0.01},
    "PP": {"temperatures": [1.0] * 10, "beta": 0.5, "proposal_variance": 0.02},
}
ARCHITECTURE_DEFAULTS = {"hidden_activation": "sigmoid"}
NOISY_XOR_DEFAULTS = {"c": 0.55, "train_per_corner": 125, "test_per_corner": 30, "seed": 0}
CSV_DATASET_DEFAULTS = {
    "name": None,  # accepted as a label and ignored when it names no dataset
    "manifest": None,
    "feature_columns": None,
    "label_column": "label",
    "label_mapping": {"0": 0, "1": 1},
}

_SECTIONS = ("dataset", "architecture", "sampler")
_INTEGER_FIELDS = ("num_chains", "iterations", "burnin", "tail", "seed")


def _section(name: str, doc: dict, defaults: dict, required=()) -> dict:
    """doc merged over defaults; a key neither defaulted nor required is a
    config error."""
    allowed = set(defaults) | set(required)
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}; expected {sorted(allowed)}")
    return {**defaults, **doc}


def _sampler_kind(doc: dict) -> str:
    kind = doc.get("kind", "MH")
    if not isinstance(kind, str) or kind.upper() not in SAMPLER_DEFAULTS:
        raise ConfigError(f"unknown sampler kind {kind!r}; expected MH, HMC or PP")
    return kind.upper()


def _dataset_fields(doc: dict) -> tuple[str, dict]:
    """The form of a dataset section (generated noisy XOR, vendored, or
    train/test CSV files) and its fields merged over that form's defaults."""
    name = doc.get("name")
    if name == "noisy-xor":
        return "noisy-xor", _section("dataset", doc, NOISY_XOR_DEFAULTS, required=("name",))
    if name in data.VENDORED_DATASETS:
        return "vendored", _section("dataset", doc, {}, required=("name",))
    return "files", _section("dataset", doc, CSV_DATASET_DEFAULTS, required=("train", "test"))


@dataclass
class ExperimentConfig:
    """One sampling experiment: dataset, model, sampler and run protocol.

    Validation builds ``arch`` and ``sampler_config`` from their sections;
    rerun ``__post_init__`` after changing a field.
    """

    dataset: dict = field(default_factory=dict)
    architecture: dict = field(default_factory=lambda: {"layer_widths": [2, 2, 1]})
    prior_variance: float = 10.0
    sampler: dict = field(default_factory=lambda: {"kind": "MH", "proposal_variance": 0.02})
    num_chains: int = 10
    iterations: int = 110000
    burnin: int = 10000
    tail: int = 10000
    seed: int = 0
    arch: mlp.Architecture = field(init=False, repr=False, compare=False)
    sampler_config: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in _SECTIONS:
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a JSON object")
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.prior_variance, (int, float)) or isinstance(self.prior_variance, bool):
            raise ConfigError(f"prior_variance must be a number, got {self.prior_variance!r}")
        if self.num_chains < 1:
            raise ConfigError("num_chains must be >= 1")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if not 0 <= self.burnin < self.iterations:
            raise ConfigError("burnin must satisfy 0 <= burnin < iterations")
        if not 0 < self.tail <= self.iterations:
            raise ConfigError("tail must satisfy 0 < tail <= iterations")
        if self.prior_variance <= 0:
            raise ConfigError("prior_variance must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        _dataset_fields(self.dataset)
        self.arch = build_architecture(self.architecture)
        self.sampler_config = build_sampler_config(self.sampler)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls) if f.init}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "architecture": self.architecture,
            "prior_variance": self.prior_variance,
            "sampler": self.sampler,
            "num_chains": self.num_chains,
            "iterations": self.iterations,
            "burnin": self.burnin,
            "tail": self.tail,
            "seed": self.seed,
        }


def build_architecture(doc: dict) -> mlp.Architecture:
    doc = _section("architecture", doc, ARCHITECTURE_DEFAULTS, required=("layer_widths",))
    try:
        widths = tuple(int(w) for w in doc["layer_widths"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"architecture.layer_widths invalid: {exc}") from None
    try:
        hidden = mlp.ActivationKind(doc["hidden_activation"])
        return mlp.Architecture(widths, hidden_activation=hidden)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_sampler_config(doc: dict):
    kind = _sampler_kind(doc)
    doc = _section("sampler", doc, {"kind": kind, **SAMPLER_DEFAULTS[kind]})
    try:
        if kind == "MH":
            return samplers.MhConfig(float(doc["proposal_variance"]))
        if kind == "HMC":
            return samplers.HmcConfig(int(doc["leapfrog_steps"]), float(doc["step_size"]))
        return samplers.PpConfig(
            tuple(float(t) for t in doc["temperatures"]),
            beta=float(doc["beta"]),
            within_chain=samplers.MhConfig(float(doc["proposal_variance"])),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sampler config invalid: {exc}") from None


def resolve_dataset(doc: dict) -> tuple[data.LabeledDataset, data.LabeledDataset]:
    """Materialize the (train, test) pair a config refers to."""
    form, doc = _dataset_fields(doc)
    if form == "noisy-xor":
        cfg = data.NoisyXorConfig(
            c=float(doc["c"]),
            train_per_corner=int(doc["train_per_corner"]),
            test_per_corner=int(doc["test_per_corner"]),
            seed=int(doc["seed"]),
        )
        return data.generate_noisy_xor(cfg)
    if form == "vendored":
        return data.load_vendored(doc["name"])
    if "train" in doc and "test" in doc:
        manifest = json.loads(Path(doc["manifest"]).read_text()) if doc["manifest"] is not None else {}
        out = []
        for role in ("train", "test"):
            out.append(
                data.load_csv_dataset(
                    doc[role],
                    manifest.get("feature_columns", doc["feature_columns"]),
                    manifest.get("label_column", doc["label_column"]),
                    {str(k): v for k, v in manifest.get("label_mapping", doc["label_mapping"]).items()},
                    role=role,
                    encodings=manifest.get("encodings"),
                )
            )
        return out[0], out[1]
    raise ConfigError(
        "dataset config needs a known name (noisy-xor, penguins, hawks) "
        "or explicit train/test file paths"
    )


def _load_config(args) -> ExperimentConfig:
    doc = {}
    if getattr(args, "config", None):
        doc = json.loads(Path(args.config).read_text())
    cfg = ExperimentConfig.from_dict(doc)
    # flag overrides
    for name in ("num_chains", "iterations", "burnin", "tail", "seed", "prior_variance"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "arch", None):
        cfg.architecture = {
            "layer_widths": [int(w) for w in args.arch.split(",")],
            "hidden_activation": cfg.architecture.get("hidden_activation", "sigmoid"),
        }
    if getattr(args, "sampler", None) and args.sampler != _sampler_kind(cfg.sampler):
        cfg.sampler = {"kind": args.sampler}  # another kind starts from its own defaults
    for flag, key in (
        ("proposal_variance", "proposal_variance"),
        ("leapfrog_steps", "leapfrog_steps"),
        ("step_size", "step_size"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            cfg.sampler[key] = value
    if getattr(args, "dataset", None):
        cfg.dataset = {"name": args.dataset}
    for flag in ("train", "test", "manifest"):
        value = getattr(args, flag, None)
        if value is not None:
            if "name" in cfg.dataset:
                cfg.dataset = {}  # file flags replace a named dataset and its settings
            cfg.dataset[flag] = value
    ExperimentConfig.__post_init__(cfg)  # revalidate after overrides
    return cfg


def _json_text(doc, indent: int | None = 2) -> str:
    """A JSON document plus newline. NaN and infinities raise ValueError
    rather than being written as tokens that strict JSON parsers reject."""
    return json.dumps(doc, indent=indent, allow_nan=False) + "\n"


def _out_dir(args) -> Path:
    path = Path(args.out_dir or os.environ.get(OUTPUT_DIR_ENV, "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _chain_paths(out_dir: Path, index: int) -> tuple[Path, Path]:
    return out_dir / f"chain_{index:02d}.csv", out_dir / f"chain_{index:02d}.json"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate_data(args) -> int:
    out_dir = _out_dir(args)
    cfg = data.NoisyXorConfig(
        c=args.c, train_per_corner=args.train_per_corner,
        test_per_corner=args.test_per_corner, seed=args.seed if args.seed is not None else 0,
    )
    train, test = data.generate_noisy_xor(cfg)
    names = ("x1", "x2")
    data.write_dataset_csv(train, out_dir / "noisy_xor_train.csv", names)
    data.write_dataset_csv(test, out_dir / "noisy_xor_test.csv", names)
    manifest = {
        "dataset": "noisy-xor",
        "feature_columns": list(names),
        "label_column": "label",
        "label_mapping": {"0": 0, "1": 1},
        "generator": {
            "c": cfg.c,
            "train_per_corner": cfg.train_per_corner,
            "test_per_corner": cfg.test_per_corner,
            "seed": cfg.seed,
        },
    }
    (out_dir / "noisy_xor_manifest.json").write_text(_json_text(manifest))
    print(f"wrote {len(train)} train and {len(test)} test rows to {out_dir}")
    return 0


def _sample_worker(config_doc: dict, index: int, out_dir: str) -> str:
    cfg = ExperimentConfig.from_dict(config_doc)
    train, _ = resolve_dataset(cfg.dataset)
    chain = samplers.run_posterior_chain(
        cfg.arch, train, cfg.prior_variance, cfg.sampler_config, cfg.iterations,
        samplers.derive_chain_seed(cfg.seed, index), burnin=cfg.burnin,
    )
    csv_path, meta_path = _chain_paths(Path(out_dir), index)
    chainio.save_chain(chain, csv_path, meta_path, config=cfg.to_dict())
    return str(csv_path)


def cmd_sample(args) -> int:
    cfg = _load_config(args)
    out_dir = _out_dir(args)
    doc = cfg.to_dict()
    indices = range(cfg.num_chains)
    if args.jobs and args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            paths = list(pool.map(_sample_worker, [doc] * cfg.num_chains, indices, [str(out_dir)] * cfg.num_chains))
    else:
        paths = [_sample_worker(doc, i, str(out_dir)) for i in indices]
    (out_dir / "experiment.json").write_text(_json_text(doc))
    for path in paths:
        print(path)
    return 0


def _load_chains(paths) -> list[samplers.Chain]:
    chains = []
    for path in paths:
        meta = Path(path).with_suffix(".json")
        chains.append(chainio.load_chain(path, meta if meta.exists() else None))
    return chains


def cmd_diagnose(args) -> int:
    chains = _load_chains(args.chains)
    burnin = args.burnin if args.burnin is not None else max(c.burnin for c in chains)
    groups: dict[str, list[samplers.Chain]] = {}
    for chain in chains:
        groups.setdefault(chain.sampler_tag, []).append(chain)
    reports = {}
    print(f"{'Sampler':<10}{'PSRF':>10}{'ESS':>12}")
    for tag, group in groups.items():
        report = diagnostics.diagnostics_report([c.draws for c in group], burnin=burnin)
        reports[tag] = report
        print(f"{tag:<10}{report['psrf']:>10.4f}{report['ess_mean']:>12.1f}")
    out = reports if len(reports) > 1 else next(iter(reports.values()))
    if args.out:
        Path(args.out).write_text(_json_text(out))
    return 0


def _predictive_setup(args):
    cfg = _load_config(args)
    _, test = resolve_dataset(cfg.dataset)
    return cfg, cfg.arch, test


def cmd_predict(args) -> int:
    if not args.prior_baseline and not args.chains:
        raise ConfigError("predict needs --chains, or --prior-baseline")
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
    chains = _load_chains(args.chains)
    accs = []
    for index, chain in enumerate(chains):
        tail = chain.tail(min(cfg.tail, len(chain)))
        acc, report = predictive.accuracy(arch, tail, test)
        accs.append(acc)
        path = out_dir / f"predictions_chain_{index:02d}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "true_label", "predicted_label", "prob_predicted", "prob_true"])
            for i, (y, yhat, pp, pt) in enumerate(
                zip(test.labels, report.predicted, report.prob_predicted, report.prob_true)
            ):
                writer.writerow([i, int(y), int(yhat), f"{pp:.17g}", f"{pt:.17g}"])
    mean_acc = float(np.mean(accs))
    summary = {"per_chain_accuracy": accs, "mean_accuracy": mean_acc}
    (out_dir / "accuracy_summary.json").write_text(_json_text(summary))
    print(f"mean accuracy {100 * mean_acc:.2f}")
    return 0


def cmd_grid(args) -> int:
    cfg, arch, _ = _predictive_setup(args)
    out_dir = _out_dir(args)
    chain = _load_chains([args.chain])[0]
    bounds = tuple(args.bounds)
    grid = predictive.grid_predictive(arch, chain.tail(min(cfg.tail, len(chain))), bounds, args.resolution)
    truth = predictive.xor_truth_grid(bounds, args.resolution)
    np.savetxt(out_dir / "grid.csv", grid, fmt="%.17g", delimiter=",")
    np.savetxt(out_dir / "grid_truth.csv", truth, fmt="%d", delimiter=",")
    print(f"wrote {args.resolution}x{args.resolution} grid to {out_dir}")
    return 0


def cmd_traces(args) -> int:
    chains = _load_chains(args.chains)
    out_dir = _out_dir(args)
    burnin = args.burnin if args.burnin is not None else max(c.burnin for c in chains)
    length = min(len(c) for c in chains)
    for coord in args.coords:
        if not 0 <= coord < chains[0].dim:
            raise ValueError(f"coordinate {coord} outside [0, {chains[0].dim})")
    header = ["iteration", "burnin"] + [
        f"chain{ci}_coord{coord}" for ci in range(len(chains)) for coord in args.coords
    ]
    path = out_dir / "traces.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for it in range(length):
            row = [it, int(it < burnin)]
            for chain in chains:
                row.extend(f"{chain.draws[it, coord]:.17g}" for coord in args.coords)
            writer.writerow(row)
    print(path)
    return 0


def cmd_boxplot_data(args) -> int:
    cfg, arch, test = _predictive_setup(args)
    out_dir = _out_dir(args)
    chains = _load_chains(args.chains)
    path = out_dir / "boxplot_accuracies.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "accuracy"])
        for index, chain in enumerate(chains):
            acc, _ = predictive.accuracy(arch, chain.tail(min(cfg.tail, len(chain))), test)
            writer.writerow([index, f"{acc:.17g}"])
    print(path)
    return 0


def cmd_sgd_ensemble(args) -> int:
    cfg = _load_config(args)
    arch = cfg.arch
    train, test = resolve_dataset(cfg.dataset)
    out_dir = _out_dir(args)
    sgd_cfg = samplers.SgdConfig(
        epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.learning_rate,
        accept_threshold=args.accept_threshold, ensemble_size=args.ensemble_size,
        max_sessions=args.max_sessions,
    )
    solutions, accuracies = samplers.sgd_ensemble(
        arch, train, test, sgd_cfg, cfg.seed, prior_variance=cfg.prior_variance
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

    def add_common(p, config=True):
        p.add_argument("--out-dir", default=None, help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
        if config:
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
    p.add_argument("--c", type=float, default=0.55)
    p.add_argument("--train-per-corner", type=int, default=125)
    p.add_argument("--test-per-corner", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("sample", help="realize posterior chains")
    add_common(p)
    p.add_argument("--sampler", choices=["MH", "HMC", "PP"], default=None)
    p.add_argument("--proposal-variance", dest="proposal_variance", type=float, default=None)
    p.add_argument("--leapfrog-steps", dest="leapfrog_steps", type=int, default=None)
    p.add_argument("--step-size", dest="step_size", type=float, default=None)
    p.add_argument("--num-chains", dest="num_chains", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help="parallel chain workers")
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
    p.add_argument("--bounds", nargs=2, type=float, default=[-0.5, 1.5])
    p.add_argument("--resolution", type=int, default=22)
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
    p.add_argument("--epochs", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=50)
    p.add_argument("--learning-rate", type=float, default=0.002)
    p.add_argument("--accept-threshold", type=float, default=0.85)
    p.add_argument("--ensemble-size", type=int, default=1000)
    p.add_argument("--max-sessions", type=int, default=100000)
    p.set_defaults(func=cmd_sgd_ensemble)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - map to categorized exit codes
        for types, category, code in _ERROR_CATEGORIES:
            if isinstance(exc, types):
                sys.stderr.write(_json_text({"error": category, "message": str(exc)}, indent=None))
                return code
        sys.stderr.write(_json_text({"error": "internal", "message": str(exc)}, indent=None))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
