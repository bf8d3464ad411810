"""Workload definitions, seeded study generation and per-call correctness checks.

A workload is a fixed sequence of pipeline configurations (one study) that
the timed loop repeats.  The workload seed draws each call's Krylov
expansion point, log-uniform in [0.8, 1.25] times the model default, and
technique ii's sampling seed; the program under test receives only the
resulting ``RunConfig`` objects.

Every workload also has reference calls: the same configurations at the
model defaults and sampling seed 0.  Their stability flags and relative H2
errors were recorded in ``reference.json`` and are compared on every run.
"""

import json
import math
from pathlib import Path

import numpy as np

# Model default expansion points, copied so that the inputs stay the same
# when the program's own defaults move.
DEFAULT_EXPANSION = {"msd": 0.7, "bpf": 1.0e6}
EXPANSION_SPREAD = (0.8, 1.25)
H2_RTOL = 1e-6
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

TECH_I = dict(model="msd", degree=2, technique="i", nodes=64,
              with_errors=True, error_nodes=200, r_max=30)
# 200 Monte Carlo nodes is the first round count above the m = 171 chaos
# polynomials of degree 2, so the transformed E is definite and every order
# is certified stable; at the CLI default of 100 it is singular.
TECH_II = dict(model="msd", degree=2, technique="ii", quad_nodes=200,
               with_errors=False, r_max=30)
BPF_2 = dict(model="bpf", degree=2, technique="iii", with_errors=True,
             error_nodes=200, r_max=30)
MSD_3 = dict(model="msd", degree=3, technique="iii", with_errors=False, r_max=30)

# One study per workload: the calls the timed loop repeats as a unit.
STUDIES = {
    "tech-i": (TECH_I,) * 4,
    "tech-ii": (TECH_II,),
    "paper-scale": (BPF_2, MSD_3),
}


def reference_kwargs(workload: str) -> list:
    """The distinct configurations of a workload at the model defaults."""
    out = []
    for kw in STUDIES[workload]:
        if kw not in out:
            out.append(kw)
    return out


def draw_studies(workload: str, seed: int):
    """Endless seeded sequence of studies, each a list of config dicts."""
    rng = np.random.default_rng(seed)
    lo, hi = (math.log(x) for x in EXPANSION_SPREAD)
    while True:
        study = []
        for kw in STUDIES[workload]:
            factor = math.exp(rng.uniform(lo, hi))
            study.append(dict(kw, expansion_point=DEFAULT_EXPANSION[kw["model"]] * factor,
                              seed=int(rng.integers(2 ** 31))))
        yield study


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def reference_key(kw: dict) -> str:
    return f"{kw['model']}-deg{kw['degree']}-tech{kw['technique']}"


def reference_rows(result: dict) -> list:
    """The recorded part of a result: per-order stability and H2 error."""
    return [{"r": row["r"], "stable": row["stable"], "rel_h2_error": row["rel_h2_error"]}
            for row in result["rows"]]


def check_call(kw: dict, result: dict, reference: dict | None = None) -> list:
    """Problems with one call's result; empty when the call is correct.

    Techniques i and ii promise a stable reduced model at every order, and
    no sweep row may carry a failure note.  With ``reference`` (the recorded
    rows of this configuration at its defaults) the stability flags must
    match exactly and the relative H2 errors to H2_RTOL.
    """
    problems = []
    rows = result["rows"]
    if len(rows) != kw["r_max"]:
        problems.append(f"{len(rows)} sweep rows, expected {kw['r_max']}")
    for row in rows:
        if row["note"]:
            problems.append(f"order {row['r']} failed: {row['note']}")
    if kw["technique"] in ("i", "ii") and result["unstable_orders"]:
        problems.append(f"technique {kw['technique']} left unstable orders "
                        f"{result['unstable_orders']}")
    if reference is not None:
        got = reference_rows(result)
        if [row["stable"] for row in got] != [row["stable"] for row in reference]:
            problems.append("stability flags differ from the recorded reference")
        for row, ref in zip(got, reference):
            err, ref_err = row["rel_h2_error"], ref["rel_h2_error"]
            if (err is None) != (ref_err is None) or (
                    err is not None and abs(err - ref_err) > H2_RTOL * abs(ref_err)):
                problems.append(f"order {row['r']}: relative H2 error {err} differs "
                                f"from the recorded {ref_err}")
    return problems
