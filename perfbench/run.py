"""sgmor benchmark: seeded pipeline studies in a closed loop with one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tech-i --seed 1 --seconds 30 --trace 0

One process drives ``sgmor.bench.run_experiment`` directly; each call starts
when the previous one returns.  The run first makes the workload's reference
calls (model defaults, sampling seed 0) untimed, as warm-up and as a check
against the values in ``reference.json``.  It then repeats whole studies
from the seeded sequence until the next one would end after ``--seconds``
(at least one study), and finally repeats the first reference call and
requires a byte-identical ``sweep.csv``.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the timed studies run under the span tracer and the result
carries the per-layer metrics instead.  Human-readable lines come first;
the last line of standard output is one JSON object.  Run records (the
environment, every call, the technique-iii margins, spans) are written to
``.perfbench_out/`` in the checkout.  The exit code is non-zero when any
call failed a check.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.STUDIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the timed studies; 0 runs one study")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import sgmor from the checkout's own sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sgmor" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sgmor sources under {src}")
    sys.path.insert(0, str(src))
    import sgmor.bench
    return sgmor.bench


def _openblas(module):
    """Version string and thread count of each OpenBLAS bundled with a wheel."""
    found = []
    libs = Path(module.__file__).resolve().parents[1] / f"{module.__name__}.libs"
    symbols = [(f"{p}get_config{s}", f"{p}get_num_threads{s}")
               for p in ("scipy_openblas_", "openblas_") for s in ("64_", "")]
    for so in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(so))
        for config, threads in symbols:
            if hasattr(lib, config) and hasattr(lib, threads):
                getattr(lib, config).restype = ctypes.c_char_p
                found.append({"library": so.name,
                              "config": getattr(lib, config)().decode(),
                              "threads": int(getattr(lib, threads)())})
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": _openblas(numpy), "scipy": _openblas(scipy)},
    }


def run_call(bench, kw, out=None, reference=None) -> dict:
    """One pipeline call, timed around run_experiment only, then checked."""
    cfg = bench.RunConfig(**kw, out=None if out is None else str(out))
    t0 = time.perf_counter()
    try:
        result = bench.run_experiment(cfg)
    except Exception as exc:  # a failed call is counted, not fatal
        return {"config": kw, "wall_s": time.perf_counter() - t0, "result": None,
                "problems": [f"raised {type(exc).__name__}: {exc}"]}
    wall = time.perf_counter() - t0
    return {"config": kw, "wall_s": wall, "result": result,
            "problems": workloads.check_call(kw, result, reference)}


def timed_studies(bench, studies, seconds, tracer=None):
    """Whole studies back to back until the next would overrun ``seconds``."""
    calls, study_walls = [], []
    t0 = time.perf_counter()
    while True:
        study = next(studies)
        t_study = time.perf_counter()
        for kw in study:
            if tracer is not None:
                tracer.call_id = len(calls)
            calls.append(run_call(bench, kw))
        study_walls.append(time.perf_counter() - t_study)
        if time.perf_counter() - t0 + statistics.median(study_walls) > seconds:
            return calls, study_walls


def call_record(call) -> dict:
    res = call["result"] or {}
    return {"config": call["config"], "wall_s": call["wall_s"],
            "timings": res.get("timings"),
            "margin": res.get("diagnostics", {}).get("margin"),
            "problems": call["problems"]}


def print_summary(args, env, metrics, n_studies, n_timed, all_calls, failed):
    """Human-readable lines ahead of the result line; problems go to stderr."""
    print(f"sgmor benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {n_studies} studies, {n_timed} timed calls")
    print(f"  environment: {env['cpu_model']} x{env['cpus_usable']}, Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, OpenBLAS "
          + ", ".join(f"{b['config'].split()[1]} ({b['threads']} threads)"
                      for libs in env["openblas"].values() for b in libs))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':44s} {failed / len(all_calls):14.6g} ratio  "
          f"({failed} of {len(all_calls)} calls)")
    margins = [c["result"]["diagnostics"]["margin"] for c in all_calls
               if c["result"] and "margin" in c["result"]["diagnostics"]]
    if margins:
        print(f"  technique-iii margin (diagnostic, a negative value certifies): "
              f"{min(margins):+.4g} .. {max(margins):+.4g}")
    for c in all_calls:
        for problem in c["problems"]:
            print(f"perfbench: FAILED {c['config']}: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = import_program()
    reference = workloads.load_reference()
    studies = workloads.draw_studies(args.workload, args.seed)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    run_dir = OUT_DIR / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # Untimed reference calls: warm-up and recorded-value check.
    ref_kws = workloads.reference_kwargs(args.workload)
    setup_calls = [run_call(bench, kw, out=run_dir / f"reference{i}",
                            reference=reference[workloads.reference_key(kw)])
                   for i, kw in enumerate(ref_kws)]
    setup_s = time.perf_counter() - T_START

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
    with tracer.installed() if tracer else nullcontext():
        timed, study_walls = timed_studies(bench, studies, args.seconds, tracer)

    repeat = run_call(bench, ref_kws[0], out=run_dir / "repeat")
    csvs = [run_dir / name / "sweep.csv" for name in ("reference0", "repeat")]
    if not all(p.is_file() for p in csvs) or csvs[0].read_bytes() != csvs[1].read_bytes():
        repeat["problems"].append("repeated call did not write the same sweep.csv")

    all_calls = setup_calls + timed + [repeat]
    failed = sum(1 for c in all_calls if c["problems"])
    walls = [c["wall_s"] for c in timed]
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "study_s": (statistics.median(study_walls), "s"),
            "call_s.p50": (statistics.median(walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, walls, [c["result"] for c in timed if c["result"]])

    env = environment()
    print_summary(args, env, metrics, len(study_walls), len(timed), all_calls, failed)

    record = {"args": vars(args), "environment": env, "failed_frac": failed / len(all_calls),
              "study_s": study_walls,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "setup_calls": [call_record(c) for c in setup_calls],
              "timed_calls": [call_record(c) for c in timed],
              "repeat_call": call_record(repeat)}
    with open(OUT_DIR / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    if tracer is not None:
        with open(OUT_DIR / f"{tag}_spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)

    print(json.dumps({"correct": failed == 0, "attempted": len(all_calls), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
