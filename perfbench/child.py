"""Helper processes of the benchmark; each mode runs in a fresh interpreter.

    python perfbench/child.py setup CONFIG_JSON
        Import bayesmlp and resolve the config's dataset and architecture:
        the fixed cost every CLI command pays before its own work.
    python perfbench/child.py provenance
        Print the software and machine facts a result depends on, as JSON.
    python perfbench/child.py ar1 OUT_DIR SEED CHAINS LENGTH DIM
        Write AR(1) chains through bayesmlp.chainio, so they have exactly the
        format the program under test writes and reads.
"""

import json
import sys


def setup(config_path):
    import bayesmlp.cli as cli

    with open(config_path) as fh:
        cfg = cli.ExperimentConfig.from_dict(json.load(fh))
    cli.resolve_dataset(cfg.dataset)
    cli.build_architecture(cfg.architecture)


def _blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if not found."""
    import ctypes
    import re

    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance():
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }))


def ar1(out_dir, seed, chains, length, dim):
    """AR(1) chains, phi in [0.995, 0.999] per coordinate, shared across chains.

    A phi this close to 1 gives integrated autocorrelation times of 400 to
    2000 draws, so MINSE scans hundreds of lag pairs, as it does on the
    slowly mixing random-walk Metropolis chains of the desk study.
    """
    from pathlib import Path

    import numpy as np

    from bayesmlp.chainio import save_chain
    from bayesmlp.samplers import Chain

    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.995, 0.999, dim)
    centre = rng.normal(0.0, 1.0, dim)
    scale = 0.3 * np.sqrt(1.0 - phi * phi)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for c in range(chains):
        noise = rng.standard_normal((length, dim)) * scale
        draws = np.empty((length, dim))
        x = 0.3 * rng.standard_normal(dim)
        for t in range(length):
            x = phi * x + noise[t]
            draws[t] = x
        draws += centre
        chain = Chain(draws, burnin=0, seed=seed, accepted=length, sampler_tag="AR1")
        save_chain(chain, out / f"chain_{c:02d}.csv", out / f"chain_{c:02d}.json")


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(*rest)
    elif mode == "provenance":
        provenance()
    elif mode == "ar1":
        ar1(rest[0], *map(int, rest[1:]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
