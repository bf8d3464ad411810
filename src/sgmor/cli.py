"""Command-line entry points for assembly, reduction, and benchmarks.

An omitted flag is absent from the parsed arguments (argparse.SUPPRESS):
its value comes from RunConfig, a saved system's record, or FrequencyRule.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import (MODEL_FIELDS, MODELS, TECHNIQUES, RunConfig, project,
                    run_experiment, stabilized_basis)
from .frequency import DEFAULT_NODES, FrequencyRule
from .mmio import load_system, save_system
from .mor import arnoldi, error_reference, h2_relative_error, reduce, stability_sweep
from .systems import _blas_serial


def _run_fields(args) -> dict:
    """The RunConfig fields given on the command line."""
    return {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__}


def _error_rule(args, extra: dict) -> FrequencyRule:
    """Error grid at --omega-scale, else at the manifest's recorded scale,
    else at FrequencyRule's own; --nodes overrides DEFAULT_NODES."""
    scale = getattr(args, "omega_scale",
                    extra.get("omega_scale", FrequencyRule.omega_scale))
    return FrequencyRule.gauss(getattr(args, "nodes", DEFAULT_NODES),
                               omega_scale=scale)


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--degree", type=int, help="chaos total degree")
    p.add_argument("--technique", choices=TECHNIQUES,
                   help="stabilizing transformation")
    p.add_argument("--nodes", type=int, help="frequency nodes for technique i")
    p.add_argument("--quad-nodes", type=int,
                   help="parameter samples for technique ii; at least the "
                   "number of chaos basis polynomials m, by default "
                   "max(100, 2m) (342 at MSD degree 2)")
    p.add_argument("--rmax", dest="r_max", type=int, help="largest reduced order")
    p.add_argument("--beta", type=float,
                   help="regularization shift (model default when omitted)")
    p.add_argument("--seed", type=int, help="sampling seed")
    p.add_argument("--no-errors", dest="with_errors", action="store_false",
                   help="skip relative H2 errors in the sweep")
    p.add_argument("--out", type=str, help="output directory")
    p.add_argument("--config", type=str,
                   help="JSON file overriding the flags above")


def _cmd_bench(args) -> int:
    fields = _run_fields(args)
    if hasattr(args, "config"):
        with open(args.config) as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise SystemExit("config file must hold a JSON object")
        fields.update(overrides)
    cfg = RunConfig.from_dict(fields)
    result = run_experiment(cfg)
    print(f"model={result['model']} dim={result['dimension']} "
          f"technique={result['technique']} stable={result['n_stable']}"
          f"/{len(result['rows'])}")
    for row in result["rows"]:
        err = "" if row["rel_h2_error"] is None else f" rel_err={row['rel_h2_error']:.3e}"
        print(f"  r={row['r']:3d} stable={str(row['stable']).lower():5s} "
              f"abscissa={row['abscissa']: .6e}{err}")
    if cfg.out:
        print(f"wrote {Path(cfg.out) / 'sweep.csv'} and report.json")
    return 0


def _cmd_assemble(args) -> int:
    cfg = RunConfig(**_run_fields(args))
    aps, basis, fom = project(cfg)
    extra = {"kind": "galerkin", "m": basis.m, "n": aps.n, "model": cfg.model,
             "degree": cfg.degree,
             **{k: getattr(cfg, k) for k in MODEL_FIELDS}}
    path = save_system(fom, cfg.out, extra=extra)
    print(f"assembled {cfg.model} degree {cfg.degree}: dimension {fom.n}, "
          f"{fom.n_out} outputs")
    print(f"wrote {path}")
    return 0


def _cmd_reduce(args) -> int:
    sys_full, extra = load_system(args.manifest)
    s0 = getattr(args, "expansion_point", extra.get("expansion_point"))
    if s0 is None:
        raise SystemExit(f"{args.manifest} records no expansion point; "
                         "pass --expansion-point")
    # the error grid is built first, so a bad one is refused before any
    # solve, also when --no-errors leaves a given one unused
    with_errors = getattr(args, "with_errors", RunConfig.with_errors)
    rule = None
    if with_errors or hasattr(args, "omega_scale") or hasattr(args, "nodes"):
        rule = _error_rule(args, extra)
    arn = arnoldi(sys_full.E, sys_full.A, sys_full.B, s0,
                  getattr(args, "r_max", RunConfig.r_max))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    np.savetxt(out_dir / "V.txt", arn.V)
    reference = error_reference(sys_full, rule) if with_errors else None
    report = stability_sweep(reduce(sys_full, arn.V), reference)
    report.to_csv(out_dir / "sweep.csv")
    print(f"Krylov basis of rank {arn.rank}"
          + (" (breakdown)" if arn.breakdown else ""))
    print(f"stable reduced models: {report.n_stable}/{len(report.rows)}, "
          f"failed: {len(report.failed_orders)}")
    print(f"wrote {out_dir / 'V.txt'} and {out_dir / 'sweep.csv'}")
    return 0


def _cmd_stabilize(args) -> int:
    cfg = RunConfig(**_run_fields(args))
    _, arn, outcome = stabilized_basis(cfg, timings={})
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    np.savetxt(out_dir / "V.txt", arn.V)
    save_system(outcome.reduced, out_dir, extra={"kind": "reduced"})
    with open(out_dir / "diagnostics.json", "w") as fh:
        json.dump({"technique": outcome.technique, **outcome.diagnostics},
                  fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    print(f"technique {outcome.technique}: wrote V.txt, the reduced system "
          f"(system.json, E/A/B/C.mtx), diagnostics.json to {out_dir}")
    return 0


def _cmd_h2error(args) -> int:
    fom, extra = load_system(args.fom)
    rom, _ = load_system(args.rom)
    err = h2_relative_error(fom, rom, freq_rule=_error_rule(args, extra))
    print(f"relative H2 error: {err:.6e}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgmor",
        description="Stochastic spectral projection, Krylov reduction, and "
                    "stability-preserving transformations for linear systems")
    sub = parser.add_subparsers(dest="command", required=True)
    omitted = {"argument_default": argparse.SUPPRESS}

    p_bench = sub.add_parser("bench", help="run a benchmark pipeline")
    bench_sub = p_bench.add_subparsers(dest="model", required=True)
    for model in MODELS:
        pb = bench_sub.add_parser(model, **omitted)
        _add_run_flags(pb)
        pb.set_defaults(func=_cmd_bench)

    p_asm = sub.add_parser("assemble", help="project a family and save it",
                           **omitted)
    p_asm.add_argument("--model", choices=list(MODELS), required=True)
    p_asm.add_argument("--degree", type=int)
    p_asm.add_argument("--beta", type=float)
    p_asm.add_argument("--out", type=str, required=True)
    p_asm.set_defaults(func=_cmd_assemble)

    p_red = sub.add_parser("reduce", help="Krylov-reduce a saved system",
                           **omitted)
    p_red.add_argument("--manifest", type=str, required=True)
    p_red.add_argument("--rmax", dest="r_max", type=int)
    p_red.add_argument("--expansion-point", type=float)
    p_red.add_argument("--nodes", type=int,
                       help=f"error-grid nodes (default {DEFAULT_NODES})")
    p_red.add_argument("--omega-scale", type=float,
                       help="error-grid frequency scale (the manifest's "
                       "recorded one when omitted)")
    p_red.add_argument("--no-errors", dest="with_errors", action="store_false")
    p_red.add_argument("--out", type=str, required=True)
    p_red.set_defaults(func=_cmd_reduce)

    p_st = sub.add_parser("stabilize", help="compute the stabilized reduced "
                          "system (techniques i and iii)", **omitted)
    p_st.add_argument("--model", choices=list(MODELS), required=True)
    p_st.add_argument("--degree", type=int)
    p_st.add_argument("--technique", choices=["i", "iii"], default="i")
    p_st.add_argument("--nodes", type=int)
    p_st.add_argument("--rmax", dest="r_max", type=int)
    p_st.add_argument("--beta", type=float)
    p_st.add_argument("--expansion-point", type=float)
    p_st.add_argument("--omega-scale", dest="stab_scale", type=float,
                      help="technique-i quadrature scale")
    p_st.add_argument("--out", type=str, required=True)
    p_st.set_defaults(func=_cmd_stabilize)

    p_h2 = sub.add_parser("h2error", help="relative H2 error of two saved systems",
                          **omitted)
    p_h2.add_argument("--fom", type=str, required=True)
    p_h2.add_argument("--rom", type=str, required=True)
    p_h2.add_argument("--nodes", type=int,
                      help=f"error-grid nodes (default {DEFAULT_NODES})")
    p_h2.add_argument("--omega-scale", type=float,
                      help="error-grid frequency scale (the --fom manifest's "
                      "recorded one when omitted, else 1)")
    p_h2.set_defaults(func=_cmd_h2error)

    args = parser.parse_args(argv)
    with _blas_serial():
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
