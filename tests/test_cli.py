import json
import subprocess
import sys

import numpy as np
import pytest

from sgmor import LTISystem, RunConfig, load_system, save_system, stability_sweep
from sgmor.cli import main


class TestBenchCommand:
    def test_msd_smoke(self, capsys, tmp_path):
        out = tmp_path / "run"
        code = main(["bench", "msd", "--degree", "0", "--rmax", "3",
                     "--no-errors", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "model=msd" in captured
        assert "dim=10" in captured
        assert (out / "sweep.csv").exists()
        assert (out / "report.json").exists()

    def test_config_file_overrides_flags(self, capsys, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"r_max": 2, "with_errors": False}))
        code = main(["bench", "msd", "--degree", "0", "--rmax", "9",
                     "--config", str(cfg_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("r=") == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ValueError, match="unknown"):
            main(["bench", "msd", "--config", str(cfg_file)])


class TestAssembleReduce:
    def test_roundtrip(self, capsys, tmp_path):
        sys_dir = tmp_path / "fom"
        code = main(["assemble", "--model", "msd", "--degree", "0",
                     "--out", str(sys_dir)])
        assert code == 0
        assert (sys_dir / "system.json").exists()
        assert (sys_dir / "A.mtx").exists()

        red_dir = tmp_path / "red"
        code = main(["reduce", "--manifest", str(sys_dir), "--rmax", "3",
                     "--no-errors", "--out", str(red_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "rank 3" in out
        assert "stable reduced models: 3/3, failed: 0" in out
        V = np.loadtxt(red_dir / "V.txt")
        assert V.shape == (10, 3)
        lines = (red_dir / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "r,stable,abscissa,rel_h2_error"
        assert len(lines) == 4

    @pytest.mark.parametrize("model", ["msd", "bpf"])
    def test_reduce_uses_the_recorded_model_defaults(self, capsys, tmp_path, model):
        # assemble records the model's expansion point and error-grid scale,
        # so reduce without scale flags repeats sgmor bench's sweep
        assert main(["assemble", "--model", model, "--out", str(tmp_path / "fom")]) == 0
        _, extra = load_system(tmp_path / "fom")
        cfg = RunConfig(model=model)
        for key in ("expansion_point", "omega_scale", "stab_scale", "beta"):
            assert extra[key] == getattr(cfg, key)
        assert main(["reduce", "--manifest", str(tmp_path / "fom"), "--rmax", "12",
                     "--out", str(tmp_path / "red")]) == 0
        assert main(["bench", model, "--degree", "1", "--rmax", "12",
                     "--out", str(tmp_path / "bench")]) == 0
        assert ((tmp_path / "red" / "sweep.csv").read_bytes()
                == (tmp_path / "bench" / "sweep.csv").read_bytes())

    def test_reduce_without_a_record_needs_an_expansion_point(self, capsys, tmp_path):
        main(["assemble", "--model", "msd", "--degree", "0", "--out", str(tmp_path / "g")])
        fom, _ = load_system(tmp_path / "g")
        save_system(fom, tmp_path / "plain")
        with pytest.raises(SystemExit, match="--expansion-point"):
            main(["reduce", "--manifest", str(tmp_path / "plain"), "--rmax", "3",
                  "--out", str(tmp_path / "red")])
        assert main(["reduce", "--manifest", str(tmp_path / "plain"), "--rmax", "3",
                     "--expansion-point", "0.7", "--no-errors",
                     "--out", str(tmp_path / "red")]) == 0

    def test_assemble_degree_one_dimension(self, capsys, tmp_path):
        code = main(["assemble", "--model", "msd", "--degree", "1",
                     "--out", str(tmp_path / "g")])
        assert code == 0
        assert "dimension 180" in capsys.readouterr().out
        _, extra = load_system(tmp_path / "g")
        assert (extra["m"], extra["n"]) == (18, 10)


class TestStabilizeCommand:
    def test_writes_factors_and_diagnostics(self, capsys, tmp_path):
        out = tmp_path / "stab"
        code = main(["stabilize", "--model", "msd", "--degree", "0",
                     "--technique", "iii", "--rmax", "3", "--out", str(out)])
        assert code == 0
        V = np.loadtxt(out / "V.txt")
        W = np.loadtxt(out / "W.txt")
        assert V.shape == W.shape == (10, 3)
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["technique"] == "iii"
        assert "margin" in diag

    def test_diagnostics_are_deterministic(self, capsys, tmp_path):
        # stage times go to report.json; diagnostics.json holds none
        args = ["stabilize", "--model", "msd", "--degree", "0",
                "--technique", "iii", "--rmax", "3", "--out"]
        assert main(args + [str(tmp_path / "a")]) == 0
        assert main(args + [str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "diagnostics.json").read_bytes()
                == (tmp_path / "b" / "diagnostics.json").read_bytes())

    def test_bpf_technique_i_stable_at_every_order(self, capsys, tmp_path):
        # the quadrature must use the stabilizer scale that sgmor bench uses;
        # the passband scale leaves order 1 of the degree-1 filter unstable
        assert main(["stabilize", "--model", "bpf", "--technique", "i",
                     "--out", str(tmp_path / "fac")]) == 0
        assert main(["assemble", "--model", "bpf", "--degree", "1",
                     "--out", str(tmp_path / "fom")]) == 0
        fom, _ = load_system(tmp_path / "fom")
        V = np.loadtxt(tmp_path / "fac" / "V.txt")
        W = np.loadtxt(tmp_path / "fac" / "W.txt")
        report = stability_sweep(fom, V, W_full=W)
        assert len(report.rows) == 30
        assert report.unstable_orders == []
        assert report.failed_orders == []


class TestH2ErrorCommand:
    def test_known_pair(self, capsys, tmp_path):
        # H = 1/(s+1) vs Hr = 1/(s+2): relative error sqrt(1/6)
        fom = LTISystem(E=np.array([[1.0]]), A=np.array([[-1.0]]),
                        B=np.array([[1.0]]), C=np.array([[1.0]]))
        rom = LTISystem(E=np.array([[1.0]]), A=np.array([[-2.0]]),
                        B=np.array([[1.0]]), C=np.array([[1.0]]))
        save_system(fom, tmp_path / "fom")
        save_system(rom, tmp_path / "rom")
        code = main(["h2error", "--fom", str(tmp_path / "fom"),
                     "--rom", str(tmp_path / "rom"), "--nodes", "400"])
        assert code == 0
        out = capsys.readouterr().out
        value = float(out.split(":")[1])
        np.testing.assert_allclose(value, np.sqrt(1.0 / 6.0), rtol=1e-6)


    def test_scale_from_the_fom_record(self, capsys, tmp_path):
        # two regularization shifts of the filter: the recorded passband
        # scale 1e5 is used unless --omega-scale says otherwise
        for name, beta in (("a", "1e-6"), ("b", "1e-5")):
            main(["assemble", "--model", "bpf", "--degree", "0", "--beta", beta,
                  "--out", str(tmp_path / name)])
        values = []
        for flags in ([], ["--omega-scale", "1e5"], ["--omega-scale", "1"]):
            capsys.readouterr()
            assert main(["h2error", "--fom", str(tmp_path / "a"), "--rom",
                         str(tmp_path / "b"), "--nodes", "400", *flags]) == 0
            values.append(float(capsys.readouterr().out.split(":")[1]))
        assert values[0] == values[1] != values[2]


class TestArgumentErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_model(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "tube"])

    def test_entry_point_installed(self):
        proc = subprocess.run([sys.executable, "-m", "sgmor.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "bench" in proc.stdout
