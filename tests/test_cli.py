import csv
import json

import pytest

from fqbarrier.cli import main, run_config
from fqbarrier.closed_form import barrier_price
from fqbarrier.contracts import BarrierType, PayoffType
from fqbarrier.gaussian import load_quantizer
from fqbarrier.tables import read_table_csv, run_table, write_table_csv


@pytest.fixture()
def bs_config(tmp_path):
    cfg = {
        "model": {"model": "bs", "r": 0.15, "sigma": 0.07, "x0": 100},
        "contract": {
            "type": "up-and-out",
            "payoff": "call",
            "strike": 100,
            "barrier": 115,
            "maturity": 1.0,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


@pytest.fixture()
def pcev_config(tmp_path):
    cfg = {
        "model": {"model": "pcev", "r": 0.15, "vartheta": 0.7, "delta": 0.5, "x0": 100},
        "contract": {
            "type": "up-and-out",
            "payoff": "call",
            "strike": 100,
            "barrier": 115,
            "maturity": 1.0,
        },
    }
    path = tmp_path / "pcev.json"
    path.write_text(json.dumps(cfg))
    return path


class TestGenerators:
    def test_gen_quantizer(self, tmp_path):
        out = tmp_path / "q.txt"
        assert main(["gen-quantizer", "--levels", "9", "--out", str(out)]) == 0
        q = load_quantizer(out)
        assert q.n_levels == 9

    def test_gen_brownian(self, tmp_path):
        out = tmp_path / "paths.txt"
        assert main(["gen-brownian", "--budget", "12", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) > 2


class TestPriceCommands:
    def test_price_closed(self, bs_config, tmp_path, capsys):
        path, _ = bs_config
        out = tmp_path / "res.csv"
        code = main(["price-closed", "--config", str(path), "--out", str(out), "--precision", "full"])
        assert code == 0
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        expected = barrier_price(100, 100, 115, 1.0, 0.15, 0.07, BarrierType.UP_AND_OUT, PayoffType.CALL)
        assert float(row["price"]) == expected
        assert row["method"] == "closed"

    def test_price_closed_rejects_pcev(self, pcev_config, capsys):
        assert main(["price-closed", "--config", str(pcev_config)]) == 1
        assert "closed form unavailable for pseudo-CEV" in capsys.readouterr().err

    def test_price_quant_deterministic(self, bs_config, tmp_path):
        path, _ = bs_config
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["price-quant", "--config", str(path), "--steps", "5", "--budget", "12",
                "--format", "json", "--precision", "full"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["price"] == b["price"]
        assert a["method"] == "quant"

    def test_price_quant_dump_files(self, bs_config, tmp_path):
        path, _ = bs_config
        grids_csv = tmp_path / "grids.csv"
        trans_csv = tmp_path / "trans.csv"
        code = main(
            ["price-quant", "--config", str(path), "--steps", "3", "--budget", "6",
             "--dump-grids", str(grids_csv), "--dump-transitions", str(trans_csv)]
        )
        assert code == 0
        grid_lines = grids_csv.read_text().strip().splitlines()
        assert grid_lines[0] == "k,t_k,rank,price,weight"
        assert len(grid_lines) == 1 + 4 * 6
        trans_lines = trans_csv.read_text().strip().splitlines()
        assert trans_lines[0] == "k,i,j,p"
        assert len(trans_lines) == 1 + 3 * 36

    def test_price_mc(self, bs_config, tmp_path):
        path, _ = bs_config
        out = tmp_path / "mc.json"
        code = main(
            ["price-mc", "--config", str(path), "--paths", "5000", "--steps", "5",
             "--seed", "3", "--estimator", "conditional", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "rbb"
        assert payload["std_error"] > 0.0

    def test_run_config_quant_matches_mc_roughly(self, bs_config):
        _, cfg = bs_config
        quant = run_config({**cfg, "method": "quant", "params": {"steps": 10, "budget": 100}})
        mc = run_config({**cfg, "method": "rbb", "params": {"steps": 10, "paths": 50000, "seed": 9}})
        assert abs(quant.price - mc.price) < 0.5

    def test_unknown_method(self, bs_config):
        _, cfg = bs_config
        with pytest.raises(ValueError):
            run_config({**cfg, "method": "tree"})

    def test_missing_config_file_fails(self):
        assert main(["price-closed", "--config", "/nonexistent/conf.json"]) == 1

    def test_non_finite_config_value_fails(self, bs_config, tmp_path, capsys):
        _, cfg = bs_config
        cfg["contract"]["strike"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(cfg))
        assert main(["price-closed", "--config", str(path)]) == 1
        assert "finite" in capsys.readouterr().err


class TestTableCommand:
    def test_table_one_reduced(self, tmp_path):
        out = tmp_path / "t1.csv"
        code = main(
            ["table", "--table", "1", "--out", str(out), "--rbb-paths", "2000",
             "--budget", "12", "--seed", "5"]
        )
        assert code == 0
        rows = read_table_csv(out)
        assert len(rows) == 6
        assert [r.level for r in rows] == [105.0, 110.0, 115.0, 120.0, 125.0, 130.0]

    def test_table_four_reduced(self, tmp_path):
        out = tmp_path / "t4.csv"
        code = main(
            ["table", "--table", "4", "--out", str(out), "--rbb-paths", "1000",
             "--ref-paths", "1000", "--ref-steps", "10", "--budget", "12", "--seed", "5"]
        )
        assert code == 0
        rows = read_table_csv(out)
        assert len(rows) == 10

    def test_csv_roundtrip_is_exact(self, tmp_path):
        rows = run_table(1, seed=11, budget=12, mc_paths=1000)
        out = tmp_path / "rt.csv"
        write_table_csv(rows, out, precision="full")
        back = read_table_csv(out)
        for a, b in zip(rows, back):
            assert a == b

    def test_invalid_table_id(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "--table", "9"])
