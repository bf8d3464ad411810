"""Persistence of systems as Matrix Market files plus a JSON manifest.

A saved system is a directory holding E.mtx, A.mtx, B.mtx, C.mtx and a
manifest recording shapes, sparsity, and optional extra metadata (for
spectral Galerkin systems: block counts and model defaults).
"""

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread, mmwrite

from .systems import LTISystem, _as_dense

MANIFEST_NAME = "system.json"
_MATRIX_KEYS = ("E", "A", "B", "C")


def _write_matrix(path: Path, M):
    if sp.issparse(M):
        mmwrite(str(path), M.tocoo())
    else:
        mmwrite(str(path), np.atleast_2d(_as_dense(M)))


def _read_matrix(path: Path, want_sparse: bool):
    M = mmread(str(path))
    if sp.issparse(M):
        return M.tocsr() if want_sparse else M.toarray()
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return sp.csr_matrix(M) if want_sparse else M


def save_system(sys: LTISystem, directory, extra: dict | None = None) -> Path:
    """Write the four matrices and a manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    mats = {"E": sys.E, "A": sys.A, "B": sys.B, "C": sys.C}
    manifest = {
        "format": "sgmor-system",
        "n": sys.n,
        "n_in": sys.n_in,
        "n_out": sys.n_out,
        "matrices": {},
    }
    for key in _MATRIX_KEYS:
        M = mats[key]
        fname = f"{key}.mtx"
        _write_matrix(directory / fname, M)
        manifest["matrices"][key] = {
            "file": fname,
            "sparse": bool(sp.issparse(M)),
            "shape": list(M.shape),
        }
    if extra:
        manifest["extra"] = extra
    manifest_path = directory / MANIFEST_NAME
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def load_system(manifest_path):
    """Read a system saved by save_system; returns (LTISystem, extra_dict)."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / MANIFEST_NAME
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("format") != "sgmor-system":
        raise ValueError(f"{manifest_path} is not a saved system manifest")
    directory = manifest_path.parent
    mats = {}
    for key in _MATRIX_KEYS:
        entry = manifest["matrices"][key]
        M = _read_matrix(directory / entry["file"], entry["sparse"])
        if list(M.shape) != entry["shape"]:
            raise ValueError(
                f"matrix {key} has shape {M.shape}, manifest says {entry['shape']}")
        mats[key] = M
    sys = LTISystem(E=mats["E"], A=mats["A"], B=mats["B"], C=mats["C"])
    declared = (manifest.get("n"), manifest.get("n_in"), manifest.get("n_out"))
    if declared != (sys.n, sys.n_in, sys.n_out):
        raise ValueError(
            f"manifest declares dimensions {declared}, matrices give "
            f"({sys.n}, {sys.n_in}, {sys.n_out})")
    return sys, manifest.get("extra", {})
