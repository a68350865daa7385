"""In-memory span tracer that wraps bayesmlp module attributes from outside.

A span is (id, parent, name, start, end, attrs). Times come from
``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC and is therefore
comparable across the processes of one machine. Spans stay in memory and are
written as JSON lines, one file per process, whenever the outermost span of
that process closes. Chain workers of ``bayesmlp sample --jobs N`` leave
through ``os._exit`` and never run ``atexit`` handlers, so flushing at the
close of the outermost span is what gets their spans out.

A forked worker inherits the open span stack of its parent. The fork hook
turns the innermost inherited span into the parent of the worker's spans and
starts the worker with an empty stack, so parent links cross processes.

This module only wraps; the analysis of the spans lives in ``layers.py``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path


def _rows(args):
    """Data rows x parameter vectors of an mlp call (arch, theta, data_or_x, ...)."""
    if len(args) < 3:
        return None
    theta, data = args[1], args[2]
    n_theta = theta.shape[0] if getattr(theta, "ndim", 1) == 2 else 1
    return len(data) * n_theta


def _mlp_attrs(args, kwargs, result):
    rows = _rows(args)
    return None if rows is None else {"rows": rows}


def _chain_attrs(args, kwargs, result):
    kind = type(args[3]).__name__.removesuffix("Config").lower()
    return {
        "kind": kind,
        "iterations": len(result),
        "accepted": result.accepted,
        "swap_accepted": result.swap_accepted or 0,
        "swap_attempts": result.swap_attempts or 0,
        "divergences": result.divergences,
    }


def _predictive_attrs(args, kwargs, result):
    tail = args[1]
    draws = tail.shape[0] if getattr(tail, "ndim", 1) == 2 else 1
    points = result.shape[0] if result.ndim == 2 else 1
    return {"draw_points": draws * points}


def _file_bytes(*paths):
    return sum(Path(p).stat().st_size for p in paths if p is not None)


def _save_attrs(args, kwargs, result):
    meta = args[2] if len(args) > 2 else kwargs.get("metadata_path")
    return {"bytes": _file_bytes(args[1], meta)}


def _load_attrs(args, kwargs, result):
    meta = args[1] if len(args) > 1 else kwargs.get("metadata_path")
    return {"bytes": _file_bytes(args[0], meta)}


#: Module attribute -> optional annotation hook run on the call's result.
#: The list holds what layers.py reads, at layer boundaries: wrapping helpers
#: such as ``mlp.forward`` would double the span count of the hot loop.
#: ``mlp.log_prior`` is here so that its time is not counted as samplers'.
TRACED = {
    "bayesmlp.mlp": {
        "log_likelihood": _mlp_attrs,
        "log_prior": None,
        "log_posterior": _mlp_attrs,
        "grad_log_posterior": _mlp_attrs,
        "event_probabilities": _mlp_attrs,
    },
    "bayesmlp.samplers": {
        "run_posterior_chain": _chain_attrs,
        "leapfrog": None,
    },
    "bayesmlp.diagnostics": {
        "multivariate_psrf": None,
        "multivariate_ess": None,
        "minse": None,
    },
    "bayesmlp.predictive": {
        "predictive_distribution": _predictive_attrs,
    },
    "bayesmlp.chainio": {
        "save_chain": _save_attrs,
        "load_chain": _load_attrs,
    },
    "bayesmlp.data": {
        "load_vendored": None,
        "generate_noisy_xor": None,
    },
    "bayesmlp.cli": {
        # the outermost spans of a command and of a chain worker
        "main": None,
        "_sample_worker": None,
    },
}


class Tracer:
    """Collects spans of one process and its forked children."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.stack: list[str] = []
        self.spans: list[tuple] = []
        self.inherited_parent: str | None = None
        self.count = 0
        self.pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.inherited_parent = self.stack[-1] if self.stack else self.inherited_parent
        self.stack = []
        self.spans = []
        self.pid = os.getpid()

    def flush(self):
        if not self.spans:
            return
        lines = "".join(json.dumps(s) + "\n" for s in self.spans)
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            fh.write(lines)
        self.spans = []

    def wrap(self, fn, name, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count += 1
            sid = f"{self.pid}-{self.count}"
            parent = self.stack[-1] if self.stack else self.inherited_parent
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                self.spans.append((sid, parent, name, start, end,
                                   annotate(args, kwargs, result) if annotate else None))
                return result
            finally:
                self.stack.pop()
                if not self.stack:
                    self.flush()

        return traced

    def install(self):
        """Replace each module attribute of TRACED with its traced wrapper."""
        for module_name, functions in TRACED.items():
            module = importlib.import_module(module_name)
            layer = module_name.rsplit(".", 1)[-1]
            for attr, annotate in functions.items():
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(original, f"{layer}.{attr}", annotate))


def read_spans(trace_dir) -> list[dict]:
    """All spans written under trace_dir, as dicts."""
    keys = ("id", "parent", "name", "start", "end", "attrs")
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(dict(zip(keys, json.loads(line))) for line in fh)
    return spans
