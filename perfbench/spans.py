"""Layer spans for the traced run.

Spans wrap hexgauge's public functions from outside: while installed, every
module attribute (and re-export) that holds one of the functions below is
replaced by a timing wrapper, and uninstalling puts the originals back.  A
layer's time is self time: a span's duration minus the time of the spans
directly inside it.  Count hooks read work sizes off return values.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict


def _count_build(tr, op, parent):
    tr.counts["hamiltonian.dim"] += op.dim
    tr.counts["hamiltonian.nnz"] += op.matrix.nnz


def _count_orbits(tr, table, parent):
    tr.counts["spinbasis.orbits"] += len(table.reps)


def _count_sector(tr, sector, parent):
    tr.counts["spinbasis.kept"] += sector.dim
    tr.counts["spinbasis.offered"] += len(sector.orbits.reps)


def _count_block(tr, block, parent):
    tr.counts["momentum.block_dim"] += block.dim


def _count_certify(tr, report, parent):
    tr.counts["oracle.gauge_states"] += report.n_gauss


def _count_gates(tr, circ, parent):
    # emit_trotter_circuit calls emit_trotter_step; count the outer circuit only
    if parent != "circuit.emit":
        tr.counts["circuit.gates"] += len(circ.gates)


def _count_qasm(tr, text, parent):
    tr.counts["circuit.qasm_bytes"] += len(text.encode())


def _diag_span(args, kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "full")
    return "observables.eig_lowest" if mode == "lowest" else "observables.eig_full"


# (module, attribute, span name or function of the call's arguments, count hook)
TARGETS = (
    ("hexgauge.hamiltonian", "build_closed", "hamiltonian.build", _count_build),
    ("hexgauge.hamiltonian", "build_periodic", "hamiltonian.build", _count_build),
    ("hexgauge.hamiltonian", "build_periodic_full", "hamiltonian.build", _count_build),
    ("hexgauge.observables", "diagonalize", _diag_span, None),
    ("hexgauge.observables", "wilson1_operator", "observables.wilson_op", None),
    ("hexgauge.observables", "wilson2_operator", "observables.wilson_op", None),
    ("hexgauge.observables", "expectation", "observables.expect", None),
    ("hexgauge.observables", "trajectory", "observables.trajectory", None),
    ("hexgauge.observables", "level_spacing_ratios_by_sector", "observables.level_stats", None),
    ("hexgauge.spinbasis", "build_orbit_table", "spinbasis.orbit", _count_orbits),
    ("hexgauge.spinbasis", "build_sector", "spinbasis.sector", _count_sector),
    ("hexgauge.spinbasis", "all_sectors", "spinbasis.sector", None),
    ("hexgauge.momentum", "hamiltonian_block", "momentum.hblock", _count_block),
    ("hexgauge.momentum", "wilson1_block", "momentum.wilson_block", None),
    ("hexgauge.momentum", "wilson2_block", "momentum.wilson_block", None),
    ("hexgauge.momentum", "sector_spectra", "momentum.spectra", None),
    ("hexgauge.oracle", "certify_isomorphism", "oracle.certify", _count_certify),
    ("hexgauge.circuit", "emit_trotter_circuit", "circuit.emit", _count_gates),
    ("hexgauge.circuit", "emit_trotter_step", "circuit.emit", _count_gates),
    ("hexgauge.circuit", "Circuit.to_qasm", "circuit.emit", _count_qasm),
    ("hexgauge.circuit", "verify_circuit", "circuit.verify", None),
    ("hexgauge.cli", "main", "cli.self", None),
)

PER_LAYER_UNITS = {
    "hamiltonian.build_s": "s", "hamiltonian.states_per_s": "1/s",
    "hamiltonian.dim": "count", "hamiltonian.nnz": "count",
    "observables.eig_lowest_s": "s", "observables.eig_full_s": "s",
    "observables.wilson_op_s": "s", "observables.expect_s": "s",
    "observables.trajectory_s": "s", "observables.level_stats_s": "s",
    "spinbasis.orbit_s": "s", "spinbasis.sector_s": "s",
    "spinbasis.orbits": "count", "spinbasis.sector_keep_frac": "frac",
    "momentum.hblock_s": "s", "momentum.wilson_block_s": "s",
    "momentum.spectra_s": "s", "momentum.block_dim": "count",
    "oracle.certify_s": "s", "oracle.gauge_states": "count",
    "circuit.emit_s": "s", "circuit.verify_s": "s",
    "circuit.gates": "count", "circuit.qasm_bytes": "B",
    "cli.self_s": "s", "cli.bytes_written": "B",
    "trace.overhead_frac": "frac", "trace.raised": "count",
}

GENERATORS = {"observables.trajectory"}
_END = object()


class Tracer:
    """Self time per span name, counts, and spans that ended in an exception."""

    def __init__(self):
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.raised = 0
        self._stack = []  # [name, time of direct children]

    def reset(self):
        self.self_time.clear()
        self.counts.clear()
        self.raised = 0

    @contextlib.contextmanager
    def _span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.self_time[name] += dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt
            if not ok:
                self.raised += 1

    def _wrap(self, fn, name, count):
        tracer = self

        def span_name(args, kwargs):
            return name(args, kwargs) if callable(name) else name

        if name in GENERATORS:
            # A generator's work happens in next(); time each step as a span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    with tracer._span(name):
                        item = next(inner, _END)
                    if item is _END:
                        return
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = span_name(args, kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else None
            with tracer._span(label):
                result = fn(*args, **kwargs)
            if count is not None:
                count(tracer, result, parent)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every reference to the target functions, then restore them."""
        patched = []  # (namespace owner, attribute, original)
        try:
            modules = [m for n, m in list(sys.modules.items())
                       if n == "hexgauge" or n.startswith("hexgauge.")]
            for modname, attr, name, count in TARGETS:
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    holders = [owner]
                else:
                    holders = modules
                orig = getattr(owner, attr)
                wrapped = self._wrap(orig, name, count)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, key, wrapped)
                            patched.append((holder, key, orig))
            yield self
        finally:
            for holder, key, orig in reversed(patched):
                setattr(holder, key, orig)

    def layer_metrics(self) -> dict[str, float]:
        """This pass's per-layer values, keyed by BENCHMARK.json per_layer name."""
        st, c = self.self_time, self.counts
        build = st["hamiltonian.build"]
        metrics = {f"{name}_s": st[name] for name in SPAN_NAMES}
        metrics.update({
            "hamiltonian.states_per_s": c["hamiltonian.dim"] / build if build > 0 else 0.0,
            "hamiltonian.dim": c["hamiltonian.dim"],
            "hamiltonian.nnz": c["hamiltonian.nnz"],
            "spinbasis.orbits": c["spinbasis.orbits"],
            "spinbasis.sector_keep_frac": (c["spinbasis.kept"] / c["spinbasis.offered"]
                                           if c["spinbasis.offered"] else 0.0),
            "momentum.block_dim": c["momentum.block_dim"],
            "oracle.gauge_states": c["oracle.gauge_states"],
            "circuit.gates": c["circuit.gates"],
            "circuit.qasm_bytes": c["circuit.qasm_bytes"],
            "trace.raised": self.raised,
        })
        return metrics


SPAN_NAMES = sorted({"observables.eig_lowest", "observables.eig_full"}
                    | {t[2] for t in TARGETS if isinstance(t[2], str)})
