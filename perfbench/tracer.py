"""In-memory spans around the layer boundaries of the sgmor pipeline.

Each traced function is replaced at the module attribute its callers look
up (``sgmor.stabilize.freq_projection``, ``scipy.sparse.linalg.splu``, ...)
for the duration of the traced study and restored afterwards.  A span holds
its name, start, end, parent span and the call it belongs to; the layer is
the first component of the name.  Self time is a span's duration minus the
durations of its direct children.
"""

import statistics
import time
from contextlib import contextmanager

import scipy.sparse.linalg

import sgmor.bench
import sgmor.galerkin
import sgmor.lyapunov
import sgmor.mor
import sgmor.stabilize

LAYERS = ("bench", "pce", "galerkin", "mor", "systems", "lyapunov", "stabilize", "lu")


def _transfer_note(args, kwargs, out):
    # Reduced models have order at most r_max = 30; full models have
    # dimension 1710 and more.
    return {"fom": args[0].n > 100, "points": len(out)}


def _bytes_note(args, kwargs, out):
    return {"bytes": int(sum(x.nbytes for x in (out.E, out.A, out.B)))}


def _nnz_note(args, kwargs, out):
    return {"nnz": int(out.E.nnz + out.A.nnz)}


def _nodes_note(args, kwargs, out):
    rule = args[4] if len(args) > 4 else kwargs["rule"]
    return {"nodes": len(rule.half()[0])}


def _fill_note(args, kwargs, out):
    return {"fill": int(out.nnz)}


# (module, attribute, span name, note on the call's arguments and result)
TARGETS = (
    (sgmor.bench, "run_experiment", "bench.run_experiment", None),
    (sgmor.bench, "build_basis", "pce.build_basis", None),
    (sgmor.bench, "monte_carlo_rule", "pce.monte_carlo_rule", None),
    (sgmor.galerkin, "moment_matrix", "pce.moment_matrix", None),
    (sgmor.galerkin, "eval_basis", "pce.eval_basis", None),
    (sgmor.bench, "assemble", "galerkin.assemble", _nnz_note),
    (sgmor.stabilize, "assemble_output", "galerkin.assemble_output", None),
    (sgmor.stabilize, "assemble_via_quadrature", "galerkin.assemble_via_quadrature",
     _bytes_note),
    (sgmor.bench, "arnoldi", "mor.arnoldi", None),
    (sgmor.bench, "stability_sweep", "mor.stability_sweep", None),
    (sgmor.mor, "reduce", "mor.reduce", None),
    (sgmor.mor, "pencil_spectrum", "systems.pencil_spectrum", None),
    (sgmor.lyapunov, "pencil_spectrum", "systems.pencil_spectrum", None),
    (sgmor.mor, "transfer_on_grid", "systems.transfer_on_grid", _transfer_note),
    (sgmor.stabilize, "eval_at", "systems.eval_at", None),
    (sgmor.stabilize, "freq_projection", "lyapunov.freq_projection", _nodes_note),
    (sgmor.stabilize, "solve_lyap_direct", "lyapunov.solve_lyap_direct", None),
    (sgmor.bench, "regularize_affine", "stabilize.regularize_affine", None),
    (sgmor.bench, "technique_i", "stabilize.technique_i", None),
    (sgmor.bench, "technique_ii", "stabilize.technique_ii", None),
    (sgmor.bench, "technique_iii", "stabilize.technique_iii", None),
    (sgmor.stabilize, "_technique_iii_margin", "stabilize.technique_iii.margin", None),
    (scipy.sparse.linalg, "splu", "lu.splu", _fill_note),
)


class Tracer:
    """Records spans; ``installed()`` wraps the targets for one block."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, call id, note]
        self.call_id = -1
        self._stack = []

    def _wrap(self, fn, name, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for (mod, attr, name, note), (_, _, fn) in zip(TARGETS, saved):
                setattr(mod, attr, self._wrap(fn, name, note))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> list:
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self) -> list:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "call": call, **(note or {})}
                for name, start, end, parent, call, note in self.spans]


def span_cost(repeats: int = 20000) -> float:
    """Seconds one span adds to a call, from a wrapped no-op."""
    tracer = Tracer()
    noop = tracer._wrap(_noop, "bench.noop", None)
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop()
    traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        _noop()
    return max(traced - (time.perf_counter() - t0), 0.0) / repeats


def _noop():
    pass


def layer_metrics(tracer: Tracer, call_walls: list, results: list) -> dict:
    """Per-layer metrics, as averages per traced call unless named otherwise.

    ``call_walls`` are the harness's wall times of the traced calls and
    ``results`` their returned reports (for ``run_experiment``'s own stage
    timings).
    """
    calls = len(call_walls)
    own = tracer.self_times()
    total, count, self_s = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    fills, fom_s, rom_s, points, nodes, qbytes, nnz = [], 0.0, 0.0, 0, 0, 0, 0
    for (name, start, end, _, _, note), self_time in zip(tracer.spans, own):
        total[name] = total.get(name, 0.0) + end - start
        count[name] = count.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + self_time
        layer_self[name.split(".")[0]] += self_time
        if note is None:  # no note, or the call raised
            continue
        if name == "lu.splu":
            fills.append(note["fill"])
        elif name == "systems.transfer_on_grid":
            if note["fom"]:
                fom_s += end - start
                points += note["points"]
            else:
                rom_s += end - start
        elif name == "lyapunov.freq_projection":
            nodes += note["nodes"]
        elif name == "galerkin.assemble_via_quadrature":
            qbytes += note["bytes"]
        elif name == "galerkin.assemble":
            nnz += note["nnz"]

    def per_call(x):
        return x / calls

    def ratio(num, den):
        return num / den if den else 0.0

    wall = sum(call_walls)
    lyap_calls = count.get("lyapunov.solve_lyap_direct", 0)
    m = {
        "lu.splu.calls": (per_call(count.get("lu.splu", 0)), "count/call"),
        "lu.splu.s": (per_call(total.get("lu.splu", 0.0)), "s/call"),
        "lu.splu.fill_nnz": (statistics.median(fills) if fills else 0, "count"),
        "lu.s_per_point": (ratio(fom_s, points), "s"),
        "systems.transfer_on_grid.fom_s": (per_call(fom_s), "s/call"),
        "systems.transfer_on_grid.points": (per_call(points), "count/call"),
        "systems.transfer_on_grid.rom_s": (per_call(rom_s), "s/call"),
        "lyapunov.freq_projection.s": (per_call(total.get("lyapunov.freq_projection", 0.0)),
                                       "s/call"),
        "lyapunov.freq_projection.s_per_node": (
            ratio(total.get("lyapunov.freq_projection", 0.0), nodes), "s"),
        "mor.reduce.s": (per_call(total.get("mor.reduce", 0.0)), "s/call"),
        "mor.reduce.calls": (per_call(count.get("mor.reduce", 0)), "count/call"),
        "systems.pencil_spectrum.s": (per_call(total.get("systems.pencil_spectrum", 0.0)),
                                      "s/call"),
        "systems.pencil_spectrum.calls": (per_call(count.get("systems.pencil_spectrum", 0)),
                                          "count/call"),
        "mor.stability_sweep.self_s": (per_call(self_s.get("mor.stability_sweep", 0.0)),
                                       "s/call"),
        "galerkin.assemble_via_quadrature.s": (
            per_call(total.get("galerkin.assemble_via_quadrature", 0.0)), "s/call"),
        "galerkin.assemble_via_quadrature.bytes": (per_call(qbytes), "B/call"),
        "lyapunov.solve_lyap_direct.s": (
            per_call(total.get("lyapunov.solve_lyap_direct", 0.0)), "s/call"),
        "lyapunov.solve_lyap_direct.calls": (per_call(lyap_calls), "count/call"),
        "lyapunov.solve_lyap_direct.s_per_call": (
            ratio(total.get("lyapunov.solve_lyap_direct", 0.0), lyap_calls), "s"),
        "stabilize.technique_i.s": (per_call(total.get("stabilize.technique_i", 0.0)), "s/call"),
        "stabilize.technique_ii.s": (per_call(total.get("stabilize.technique_ii", 0.0)),
                                     "s/call"),
        "stabilize.technique_iii.s": (per_call(total.get("stabilize.technique_iii", 0.0)),
                                      "s/call"),
        "stabilize.technique_iii.margin_s": (
            per_call(total.get("stabilize.technique_iii.margin", 0.0)), "s/call"),
        "mor.arnoldi.s": (per_call(total.get("mor.arnoldi", 0.0)), "s/call"),
        "galerkin.assemble.s": (per_call(total.get("galerkin.assemble", 0.0)), "s/call"),
        "galerkin.nnz": (per_call(nnz), "count"),
        "pce.build_basis.s": (per_call(total.get("pce.build_basis", 0.0)), "s/call"),
        "pce.moment_matrix.s": (per_call(total.get("pce.moment_matrix", 0.0)), "s/call"),
    }
    for stage in ("assemble", "arnoldi", "stabilize", "sweep"):
        m[f"bench.stage.{stage}_s"] = (
            per_call(sum(res["timings"][stage] for res in results)), "s/call")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (per_call(layer_self[layer]), "s/call")
    m["trace.call_s"] = (per_call(wall), "s/call")
    m["trace.coverage"] = (ratio(sum(layer_self.values()), wall), "ratio")
    m["trace.spans"] = (per_call(len(tracer.spans)), "count/call")
    m["trace.overhead_frac"] = (ratio(len(tracer.spans) * span_cost(), wall), "ratio")
    return m
