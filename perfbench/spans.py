"""In-memory spans and counters around calls into each lplab layer.

Nothing under `src/` is instrumented.  The tracer replaces a layer's public
function wherever an lplab module bound it (the defining module too, so
calls inside it are seen), and restores every binding on exit.  A span
records its name, start, end and parent; a layer's self time is its spans'
duration minus the time their child spans cover.  Wrappers do nothing in a
process other than the tracer's, so pool workers run untraced and only the
parent side of the process-pool path is measured.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

# (span name, defining module, function, also wrap inside the defining module)
SPAN_SITES = (
    ("torus_grid.transform", "lplab.torus_grid", "forward_transform", True),
    ("torus_grid.transform", "lplab.torus_grid", "inverse_transform", True),
    ("torus_grid.transform", "lplab.torus_grid", "apply_symbol", True),
    ("torus_grid.kinetic_form", "lplab.torus_grid", "kinetic_form", True),
    ("torus_grid.lp_norm", "lplab.torus_grid", "lp_norm", True),
    ("dyadic_partition.build_blocks", "lplab.dyadic_partition", "build_blocks", True),
    ("projectors.square_function", "lplab.projectors", "square_function", True),
    ("fock_operator.conjugated_density", "lplab.fock_operator", "conjugated_density", True),
    ("fock_operator.kinetic_trace", "lplab.fock_operator", "kinetic_trace", True),
    ("fock_operator.validate_contract", "lplab.fock_operator", "validate_contract", True),
    ("fock_operator.fermi_sea", "lplab.fock_operator", "fermi_sea", True),
    ("fock_operator.density", "lplab.fock_operator", "density", True),
    ("corpus.random_orthonormal_frame", "lplab.corpus", "random_orthonormal_frame", True),
    ("corpus.spike_sequences", "lplab.corpus", "spike_sequences", True),
    ("inequality_lab.estimate_envelope", "lplab.inequality_lab", "estimate_envelope", True),
    ("inequality_lab.lt_chain_check", "lplab.inequality_lab", "lt_chain_check", True),
    ("inequality_lab.lieb_thirring_check", "lplab.inequality_lab", "lieb_thirring_check", True),
    ("inequality_lab.khinchine_reports", "lplab.inequality_lab", "khinchine_reports", True),
    ("inequality_lab.sequence_lemma_trials", "lplab.inequality_lab", "sequence_lemma_trials", True),
    ("reporting.canonical_json", "lplab.reporting", "canonical_json", True),
    # sanitize recurses through its own module binding: one span per call
    # from the CLI, not one per node of the report.
    ("reporting.sanitize", "lplab.reporting", "sanitize", False),
)

SELF_TIMED = (
    "torus_grid.transform",
    "torus_grid.kinetic_form",
    "torus_grid.lp_norm",
    "dyadic_partition.build_blocks",
    "projectors.square_function",
    "fock_operator.conjugated_density",
    "fock_operator.kinetic_trace",
    "fock_operator.validate_contract",
    "fock_operator.fermi_sea",
    "fock_operator.density",
    "corpus.random_orthonormal_frame",
    "corpus.spike_sequences",
    "inequality_lab.estimate_envelope",
    "inequality_lab.khinchine_reports",
    "inequality_lab.sequence_lemma_trials",
    "reporting.canonical_json",
    "reporting.sanitize",
)
CALL_COUNTED = (
    "torus_grid.transform",
    "torus_grid.kinetic_form",
    "dyadic_partition.build_blocks",
    "projectors.square_function",
    "fock_operator.conjugated_density",
    "fock_operator.kinetic_trace",
    "fock_operator.validate_contract",
    "inequality_lab.estimate_envelope",
)
# Reported with their full duration, children included.
WALL_TIMED = {
    "inequality_lab.lt_chain_check": "inequality_lab.lt_chain_check.s",
    "inequality_lab.lieb_thirring_check": "inequality_lab.lieb_thirring_check.s",
    "inequality_lab.pool": "inequality_lab.pool.wait_s",
}
SECTION_SPAN = "cli.section"
ALL_SPAN = "cli.all"


class Tracer:
    """Spans and counters of one process, kept in memory until written out."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.member_keys: set = set()
        self.fft_max_bytes = 0
        self.sections: list[tuple[str, float]] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def traced(self) -> bool:
        return os.getpid() == self.pid

    def span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.traced():
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block."""
        undo: list[tuple[object, str, object]] = []  # (owner, key, old value)

        def patch(owner, attr, value):
            if isinstance(owner, dict):
                undo.append((owner, attr, owner[attr]))
                owner[attr] = value
            else:
                undo.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, value)

        try:
            self._install(patch)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                if isinstance(owner, dict):
                    owner[attr] = value
                else:
                    setattr(owner, attr, value)

    def _install(self, patch) -> None:
        import numpy.fft

        import lplab.cli
        import lplab.corpus
        import lplab.inequality_lab

        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "lplab"]
        missing = []
        for name, home, attr, inside in SPAN_SITES:
            original = getattr(sys.modules[home], attr, None)
            if original is None:
                missing.append(f"{home}.{attr}")
                continue
            wrapper = self.span_wrapper(name, original)
            for module in modules:
                if (inside or module.__name__ != home) and getattr(module, attr, None) is original:
                    patch(module, attr, wrapper)
        if missing:
            print(f"trace: no such function: {', '.join(missing)}", file=sys.stderr)

        for attr in ("fftn", "ifftn"):
            patch(numpy.fft, attr, self._fft_counter(getattr(numpy.fft, attr)))
        self._install_counters(patch, modules, lplab.corpus)
        pool = self._pool_class(lplab.inequality_lab.ProcessPoolExecutor)
        patch(lplab.inequality_lab, "ProcessPoolExecutor", pool)
        self._install_sections(patch, lplab.cli)

    def _fft_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if self.traced():
                self.count("torus_grid.fft.calls")
                self.count("torus_grid.fft.elements", int(out.size))
                self.fft_max_bytes = max(self.fft_max_bytes, int(out.nbytes))
            return out

        return wrapper

    def _install_counters(self, patch, modules, corpus) -> None:
        tracer = self
        member = corpus.CorpusSpec.member

        @functools.wraps(member)
        def counted_member(spec, grid, index):
            if tracer.traced():
                tracer.count("corpus.member.calls")
                tracer.member_keys.add(
                    (
                        json.dumps(spec.to_dict(), sort_keys=True),
                        grid.dimension,
                        grid.box_length,
                        grid.points_per_axis,
                        index,
                    )
                )
            return member(spec, grid, index)

        patch(corpus.CorpusSpec, "member", counted_member)

        def counter(fn, name, when=lambda args, kwargs: True):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.traced() and when(args, kwargs):
                    tracer.count(name)
                return fn(*args, **kwargs)

            return wrapper

        retried = counter(
            corpus.random_band_limited,
            "corpus.frame.retries",
            lambda args, kwargs: kwargs.get("stream", args[5] if len(args) > 5 else 0) >= 1,
        )
        philox = counter(corpus.philox_generator, "corpus.philox_generator.calls")
        for module in modules:
            for attr, wrapper in (("random_band_limited", retried), ("philox_generator", philox)):
                if getattr(module, attr, None) is wrapper.__wrapped__:
                    patch(module, attr, wrapper)

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """The parent's side of a process pool: its count and its lifetime."""

            def __init__(self, *args, **kwargs):
                self._span = None
                if tracer.traced():
                    tracer.count("inequality_lab.pool.created")
                    self._span = tracer.open("inequality_lab.pool")
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    if self._span is not None:
                        tracer.close(self._span)

        return TracedPool

    def _install_sections(self, patch, cli) -> None:
        """Time each section of `lplab all`, named by the key it reports under."""
        handlers = {
            name: fn
            for name, fn in vars(cli).items()
            if name.startswith("_cmd_") and name != "_cmd_all" and callable(fn)
        }
        run_all = getattr(cli, "_cmd_all", None)
        table = getattr(cli, "_HANDLERS", {})
        if run_all is None or table.get("all") is not run_all:
            print("trace: cannot find the sections of lplab all", file=sys.stderr)
            return
        for name, fn in handlers.items():
            patch(cli, name, self.span_wrapper(SECTION_SPAN, fn))
        tracer = self

        @functools.wraps(run_all)
        def traced_all(*args, **kwargs):
            index = tracer.open(ALL_SPAN)
            try:
                result = run_all(*args, **kwargs)
            finally:
                tracer.close(index)
            children = [
                s for s in tracer.spans[index + 1 :] if s[3] == index and s[0] == SECTION_SPAN
            ]
            labels = list(result[0])
            if len(labels) == len(children):
                tracer.sections.extend(
                    (label, s[2] - s[1]) for label, s in zip(labels, children)
                )
            return result

        patch(cli, "_cmd_all", traced_all)
        patch(table, "all", traced_all)

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of everything traced since the last reset."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration
            if parent >= 0:
                covered[parent] += duration
        own: dict[str, float] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            own[name] = own.get(name, 0.0) + (end - start - child)

        out: dict[str, float] = {}
        for name in CALL_COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = own.get(name, 0.0)
        for name, metric in WALL_TIMED.items():
            out[metric] = total.get(name, 0.0)
        for name in (
            "torus_grid.fft.calls",
            "torus_grid.fft.elements",
            "corpus.member.calls",
            "corpus.frame.retries",
            "corpus.philox_generator.calls",
            "inequality_lab.pool.created",
        ):
            out[name] = self.counts.get(name, 0)
        out["torus_grid.fft.max_bytes"] = self.fft_max_bytes
        member_calls = self.counts.get("corpus.member.calls", 0)
        out["corpus.member.useful_ratio"] = (
            len(self.member_keys) / member_calls if member_calls else 0.0
        )
        for label, seconds in self.sections:
            out[f"cli.section.{label}_s"] = out.get(f"cli.section.{label}_s", 0.0) + seconds
        return out

    def write(self, path) -> None:
        """Write the spans, one JSON list [name, start, end, parent] per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
