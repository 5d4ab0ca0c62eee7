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

    def test_price_closed_small_sigma(self, tmp_path, capsys):
        cfg = {
            "model": {"model": "bs", "r": 0.221, "sigma": 0.0108, "x0": 100},
            "contract": {"type": "up-and-out", "payoff": "put", "strike": 60.47, "barrier": 127.5, "maturity": 0.73},
        }
        path = tmp_path / "small_sigma.json"
        path.write_text(json.dumps(cfg))
        assert main(["price-closed", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("closed price = ")

    def test_price_closed_overflow_fails_with_one_line(self, bs_config, tmp_path, capsys):
        # the discount factor exp(-r T) overflows a float at r = -800; every pricer names r and T before any dump
        _, cfg = bs_config
        cfg["model"]["r"] = -800.0
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(cfg))
        dumps = ["--dump-grids", str(tmp_path / "grids.csv"), "--dump-transitions", str(tmp_path / "trans.csv")]
        for command in (["price-closed"], ["price-mc"], ["price-quant", *dumps]):
            assert main([*command, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "overflows a float at r=-800.0, T=1.0" in err
        assert not (tmp_path / "grids.csv").exists() and not (tmp_path / "trans.csv").exists()

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
        args = ["price-quant", "--config", str(path), "--steps", "3", "--budget", "6",
                "--format", "json", "--precision", "full"]
        code = main(
            args + ["--out", str(tmp_path / "dumped.json"),
                    "--dump-grids", str(grids_csv), "--dump-transitions", str(trans_csv)]
        )
        assert code == 0
        grid_lines = grids_csv.read_text().strip().splitlines()
        assert grid_lines[0] == "k,t_k,rank,price,weight"
        assert len(grid_lines) == 1 + 4 * 6
        trans_lines = trans_csv.read_text().strip().splitlines()
        assert trans_lines[0] == "k,i,j,p"
        assert len(trans_lines) == 1 + 3 * 36
        row_sums = {}
        with open(trans_csv, newline="") as fh:
            for row in csv.DictReader(fh):
                key = (row["k"], row["i"])
                row_sums[key] = row_sums.get(key, 0.0) + float(row["p"])
        assert len(row_sums) == 3 * 6
        assert all(abs(total - 1.0) <= 1e-12 for total in row_sums.values())
        # dumping leaves the price as it is without the dump flags
        assert main(args + ["--out", str(tmp_path / "plain.json")]) == 0
        dumped = json.loads((tmp_path / "dumped.json").read_text())["price"]
        assert dumped == json.loads((tmp_path / "plain.json").read_text())["price"]

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

    @pytest.mark.parametrize(
        "method, key, value",
        [("quant", "steps", 2.9), ("quant", "budget", 12.7),
         ("rbb", "paths", 1000.5), ("rbb", "seed", "9"), ("rbb", "steps", True)],
    )
    def test_run_config_rejects_non_integer_params(self, bs_config, method, key, value):
        _, cfg = bs_config
        with pytest.raises(ValueError, match=f"params.{key} must be an integer"):
            run_config({**cfg, "method": method, "params": {key: value}})

    def test_run_config_accepts_integral_floats(self, bs_config):
        _, cfg = bs_config
        as_float = run_config({**cfg, "method": "quant", "params": {"steps": 2.0, "budget": 12.0}})
        as_int = run_config({**cfg, "method": "quant", "params": {"steps": 2, "budget": 12}})
        assert as_float.price == as_int.price

    def test_fractional_config_value_fails(self, bs_config, tmp_path, capsys):
        _, cfg = bs_config
        cfg["params"] = {"steps": 2.9, "budget": 12.7}
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(cfg))
        assert main(["price-quant", "--config", str(path)]) == 1
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("config, key, message", [
        ("bs", "cdf_mode", "unknown params key(s) 'cdf_mode'"),
        ("pcev", "substep", "unknown params key(s) 'substep'"),
    ], ids=["cdf-mode", "misspelt"])
    def test_unread_params_key_fails_before_any_dump(self, bs_config, pcev_config, tmp_path, capsys, config, key,
                                                     message):
        path = bs_config[0] if config == "bs" else pcev_config
        cfg = json.loads(path.read_text())
        cfg["params"] = {"steps": 3, "budget": 6, key: "exact",
                         "dump_grids": str(tmp_path / "grids.csv"), "dump_transitions": str(tmp_path / "trans.csv")}
        path.write_text(json.dumps(cfg))
        assert main(["price-quant", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "grids.csv").exists() and not (tmp_path / "trans.csv").exists()

    @pytest.mark.parametrize("change, message", [
        (lambda cfg: cfg["params"].update(step=40), "unknown params key(s) 'step'"),
        (lambda cfg: cfg["params"].update(estimater="conditional"), "unknown params key(s) 'estimater'"),
        (lambda cfg: cfg.update(parms=cfg.pop("params")), "unknown config key(s) 'parms'"),
        (lambda cfg: cfg["model"].update(r=None), "model.r must be a number, got None"),
        (lambda cfg: cfg["model"].update(sigma=[1]), "model.sigma must be a number, got [1]"),
        (lambda cfg: cfg["contract"].update(barrier="high"), "contract.barrier must be a number, got 'high'"),
        (lambda cfg: cfg["params"].update(dump_grids=1), "params.dump_grids must be a file path, got 1"),
        (lambda cfg: cfg.update(params=[1]), "params must be a JSON object, got list"),
        (lambda cfg: cfg.update(model="bs"), "model must be a JSON object, got str"),
        (lambda cfg: cfg.pop("contract"), "contract must be a JSON object, got NoneType"),
        (lambda cfg: [cfg], "config must be a JSON object, got list"),
        (lambda cfg: cfg["model"].update(vartheta=5.0),
         "unknown model key(s) 'vartheta'; accepted: model, r, sigma, x0"),
        (lambda cfg: cfg["model"].update(sigam=cfg["model"].pop("sigma")),
         "unknown model key(s) 'sigam'; missing model key(s) 'sigma'; accepted: model, r, sigma, x0"),
        (lambda cfg: cfg["contract"].update(barier=cfg["contract"].pop("barrier")),
         "unknown contract key(s) 'barier'; missing contract key(s) 'barrier'; "
         "accepted: type, payoff, strike, barrier, maturity"),
        (lambda cfg: cfg["contract"].pop("payoff"),
         "missing contract key(s) 'payoff'; accepted: type, payoff, strike, barrier, maturity"),
        (lambda cfg: cfg["contract"].update(type="up"),
         "contract.type must be one of up-and-out, down-and-out, got 'up'"),
    ], ids=["step", "estimater", "parms", "r-null", "sigma-list", "barrier-text", "dump-fd", "params-list", "model-text",
            "no-contract", "top-level-list", "model-extra", "model-misspelt", "contract-misspelt",
            "contract-missing", "contract-type"])
    def test_malformed_config_fails_with_one_line_before_any_dump(self, bs_config, tmp_path, capsys, change, message):
        path, cfg = bs_config
        cfg["params"] = {"steps": 3, "budget": 6, "dump_grids": str(tmp_path / "grids.csv")}
        changed = change(cfg)  # a list replaces the whole config
        path.write_text(json.dumps(changed if isinstance(changed, list) else cfg))
        assert main(["price-quant", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "grids.csv").exists()

    def test_bad_estimator_names_the_key_and_the_values(self, bs_config, capsys):
        path, cfg = bs_config
        cfg["params"] = {"paths": 100, "estimator": "cond"}
        path.write_text(json.dumps(cfg))
        assert main(["price-mc", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: params.estimator must be one of indicator, conditional, got 'cond'\n"

    def test_one_config_serves_both_methods(self, bs_config):
        path, cfg = bs_config
        cfg["params"] = {"steps": 4, "budget": 12, "paths": 2000, "seed": 5, "estimator": "conditional"}
        path.write_text(json.dumps(cfg))
        assert main(["price-quant", "--config", str(path)]) == 0
        assert main(["price-mc", "--config", str(path)]) == 0

    def test_cdf_mode_flag_is_gone(self, bs_config):
        with pytest.raises(SystemExit) as exc:
            main(["price-quant", "--config", str(bs_config[0]), "--cdf-mode", "euler"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [["price-quant", "--config", "cfg.json"], ["table", "--table", "1"]],
                             ids=["price-quant", "table"])
    def test_substeps_flag_is_gone(self, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--substeps", "8"])
        assert exc.value.code == 2

    def test_substeps_param_is_rejected(self, bs_config, capsys):
        path, cfg = bs_config
        cfg["params"] = {"steps": 3, "budget": 6, "substeps": 4}
        path.write_text(json.dumps(cfg))
        assert main(["price-quant", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown params key(s) 'substeps'") and err.count("\n") == 1

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

    def test_zero_path_overrides_are_rejected(self):
        """An explicit 0 reaches McConfig and raises; it does not fall back to the full default."""
        with pytest.raises(ValueError, match="n_paths"):
            run_table(1, mc_paths=0)
        with pytest.raises(ValueError, match="n_steps"):
            run_table(4, mc_paths=1000, reference_paths=1000, reference_steps=0)

    def test_zero_rbb_paths_exits_1(self, capsys):
        assert main(["table", "--table", "1", "--rbb-paths", "0"]) == 1
        assert "n_paths" in capsys.readouterr().err
