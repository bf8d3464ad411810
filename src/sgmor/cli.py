"""Command-line entry points for assembly, reduction, and benchmarks."""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import RunConfig, _model_pieces, run_experiment
from .frequency import FrequencyRule
from .galerkin import assemble
from .mmio import load_system, save_system
from .mor import arnoldi, stability_sweep
from .pce import build_basis
from .stabilize import technique_i, technique_iii
from .systems import h2_relative_error


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--degree", type=int, default=1, help="chaos total degree")
    p.add_argument("--technique", choices=["none", "i", "ii", "iii"],
                   default="none", help="stabilizing transformation")
    p.add_argument("--nodes", type=int, default=64,
                   help="frequency nodes for technique i")
    p.add_argument("--quad-nodes", type=int, default=100,
                   help="parameter samples for technique ii; at least the "
                   "number of chaos basis polynomials m (m = 171 at MSD "
                   "degree 2), so the default covers degree 1 only")
    p.add_argument("--rmax", type=int, default=30, help="largest reduced order")
    p.add_argument("--beta", type=float, default=None,
                   help="regularization shift (model default when omitted)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--no-errors", action="store_true",
                   help="skip relative H2 errors in the sweep")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file overriding the flags above")


def _bench_config(args, model: str) -> RunConfig:
    cfg = {
        "model": model,
        "degree": args.degree,
        "technique": args.technique,
        "nodes": args.nodes,
        "quad_nodes": args.quad_nodes,
        "r_max": args.rmax,
        "beta": args.beta,
        "seed": args.seed,
        "with_errors": not args.no_errors,
        "out": args.out,
    }
    if args.config:
        with open(args.config) as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise SystemExit("config file must hold a JSON object")
        cfg.update(overrides)
    return RunConfig.from_dict(cfg)


def _cmd_bench(args) -> int:
    cfg = _bench_config(args, args.bench_model)
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
    aps = _model_pieces(RunConfig(model=args.model, beta=args.beta))[0]
    basis = build_basis(aps.dists, args.degree)
    gal = assemble(aps, basis)
    extra = {"kind": "galerkin", "m": gal.m, "n": gal.n,
             "provenance": gal.provenance, "model": args.model,
             "degree": args.degree}
    path = save_system(gal.as_lti(), args.out, extra=extra)
    print(f"assembled {args.model} degree {args.degree}: dimension {gal.dim}, "
          f"{gal.n_out} outputs")
    print(f"wrote {path}")
    return 0


def _cmd_reduce(args) -> int:
    sys_full, extra = load_system(args.manifest)
    arn = arnoldi(sys_full.E, sys_full.A, sys_full.B, args.expansion_point,
                  args.rmax)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    np.savetxt(out_dir / "V.txt", arn.V)
    rule = FrequencyRule.gauss(args.nodes, omega_scale=args.omega_scale)
    report = stability_sweep(sys_full, arn.V, list(range(1, arn.rank + 1)),
                             freq_rule=None if args.no_errors else rule)
    report.to_csv(out_dir / "sweep.csv")
    print(f"Krylov basis of rank {arn.rank}"
          + (" (breakdown)" if arn.breakdown else ""))
    print(f"stable reduced models: {report.n_stable}/{len(report.rows)}")
    print(f"wrote {out_dir / 'V.txt'} and {out_dir / 'sweep.csv'}")
    return 0


def _cmd_stabilize(args) -> int:
    # --omega-scale sets the technique-i quadrature, the stab_scale of a run
    aps, s0, _, stab_scale, _ = _model_pieces(RunConfig(
        model=args.model, beta=args.beta, expansion_point=args.expansion_point,
        stab_scale=args.omega_scale))
    basis = build_basis(aps.dists, args.degree)
    gal = assemble(aps, basis)
    arn = arnoldi(gal.E, gal.A, gal.B, s0, args.rmax)
    if args.technique == "i":
        outcome = technique_i(gal, arn.V, rule=FrequencyRule.gauss(
            args.nodes, omega_scale=stab_scale))
    else:
        outcome = technique_iii(gal, aps, arn.V)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    np.savetxt(out_dir / "V.txt", arn.V)
    np.savetxt(out_dir / "W.txt", outcome.W)
    with open(out_dir / "diagnostics.json", "w") as fh:
        json.dump({"technique": outcome.technique, **outcome.diagnostics},
                  fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    print(f"technique {outcome.technique}: wrote V.txt, W.txt, diagnostics.json "
          f"to {out_dir}")
    return 0


def _cmd_h2error(args) -> int:
    fom, _ = load_system(args.fom)
    rom, _ = load_system(args.rom)
    rule = FrequencyRule.gauss(args.nodes, omega_scale=args.omega_scale)
    err = h2_relative_error(fom, rom, freq_rule=rule)
    print(f"relative H2 error: {err:.6e}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgmor",
        description="Stochastic spectral projection, Krylov reduction, and "
                    "stability-preserving transformations for linear systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run a benchmark pipeline")
    bench_sub = p_bench.add_subparsers(dest="bench_model", required=True)
    for model in ("msd", "bpf"):
        pb = bench_sub.add_parser(model)
        _add_run_flags(pb)
        pb.set_defaults(func=_cmd_bench)

    p_asm = sub.add_parser("assemble", help="project a family and save it")
    p_asm.add_argument("--model", choices=["msd", "bpf"], required=True)
    p_asm.add_argument("--degree", type=int, default=1)
    p_asm.add_argument("--beta", type=float, default=None)
    p_asm.add_argument("--out", type=str, required=True)
    p_asm.set_defaults(func=_cmd_assemble)

    p_red = sub.add_parser("reduce", help="Krylov-reduce a saved system")
    p_red.add_argument("--manifest", type=str, required=True)
    p_red.add_argument("--rmax", type=int, default=30)
    p_red.add_argument("--expansion-point", type=float, default=0.7)
    p_red.add_argument("--nodes", type=int, default=200)
    p_red.add_argument("--omega-scale", type=float, default=1.0)
    p_red.add_argument("--no-errors", action="store_true")
    p_red.add_argument("--out", type=str, required=True)
    p_red.set_defaults(func=_cmd_reduce)

    p_st = sub.add_parser("stabilize", help="compute a stabilizing left factor")
    p_st.add_argument("--model", choices=["msd", "bpf"], required=True)
    p_st.add_argument("--degree", type=int, default=1)
    p_st.add_argument("--technique", choices=["i", "iii"], default="i")
    p_st.add_argument("--nodes", type=int, default=64)
    p_st.add_argument("--rmax", type=int, default=30)
    p_st.add_argument("--beta", type=float, default=None)
    p_st.add_argument("--expansion-point", type=float, default=None)
    p_st.add_argument("--omega-scale", type=float, default=None)
    p_st.add_argument("--out", type=str, required=True)
    p_st.set_defaults(func=_cmd_stabilize)

    p_h2 = sub.add_parser("h2error", help="relative H2 error of two saved systems")
    p_h2.add_argument("--fom", type=str, required=True)
    p_h2.add_argument("--rom", type=str, required=True)
    p_h2.add_argument("--nodes", type=int, default=200)
    p_h2.add_argument("--omega-scale", type=float, default=1.0)
    p_h2.set_defaults(func=_cmd_h2error)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
