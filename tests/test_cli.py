"""End-to-end tests for the scenario-driven command line."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import ammlab
from ammlab import __version__
from ammlab.analysis import (
    CurveSeries,
    SeriesKind,
    default_cross_section_grid,
    default_shift_grid,
    default_trade_grid,
)
from ammlab.cli import _series_csv, main, run_scenario, validate_scenario_data

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

UNI = {"id": "uni", "protocol": "uniswap", "reserves": [100, 100]}
BAL = {"id": "bal", "protocol": "balancer", "reserves": [100, 100], "weights": [0.8, 0.2]}
CRV = {"id": "crv", "protocol": "curve", "reserves": [100, 100], "amplification": 10}
DDO = {
    "id": "ddo",
    "protocol": "dodo",
    "reserves": [100, 100],
    "amplification": 0.5,
    "oracle_price": 1.0,
}

# a dodo pool whose swap quadratic's constant term -P*A*C2^2 overflows at
# every reserve 1 above its target of 1
DDO_PAST_RANGE = dict(DDO, reserves=[1, 1e150], oracle_price=1e10, targets=[1, 1e150])


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def read_csv_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _slippage_on(grid):
    return {
        "pools": [UNI],
        "actions": [{"action": "slippage_curve", "pool": "uni", "grid": grid}],
    }


# a scenario document and every line validate prints for it: one document
# per refusal the CLI's own shape checks can make, and the library's verdict
# on the sushiswap and bancor builds
REFUSALS = {
    "stableswap-sum-past-range": (
        {"pools": [dict(CRV, reserves=[1e308, 9e307])], "actions": []},
        [
            "pools[0]: the invariant equation leaves the floating-point range at D=inf "
            "for reserves (1e+308, 9e+307)"
        ],
    ),
    "grid-empty": (_slippage_on([]), ["actions[0]: grid array is empty"]),
    "grid-not-numbers": (
        _slippage_on([0.1, "x"]),
        ["actions[0]: grid values must be finite numbers"],
    ),
    "grid-unknown-key": (
        _slippage_on({"start": 0.1, "stop": 0.5, "points": 3, "step": 1}),
        ["actions[0]: unknown grid keys ['step']"],
    ),
    "grid-start-stop": (
        _slippage_on({"start": 0.1, "stop": None, "points": 3}),
        ["actions[0]: grid start/stop must be finite numbers"],
    ),
    "grid-points": (
        _slippage_on({"start": 0.1, "stop": 0.5, "points": 2.5}),
        ["actions[0]: grid points must be an integer"],
    ),
    "grid-spacing": (
        _slippage_on({"start": 0.1, "stop": 0.5, "points": 3, "spacing": "cubic"}),
        ["actions[0]: grid spacing must be 'log' or 'linear'"],
    ),
    "grid-type": (
        _slippage_on("0.1:0.5"),
        ["actions[0]: grid must be an array or a start/stop/points object"],
    ),
    "pool-not-object": (
        {"pools": [[1, 2]], "actions": []},
        ["pools[0]: pool definition must be an object"],
    ),
    "pool-id": (
        {"pools": [dict(UNI, id="u ni")], "actions": []},
        ["pools[0]: pool id must match [A-Za-z0-9_-]+, got 'u ni'"],
    ),
    "unknown-protocol": (
        {"pools": [dict(UNI, protocol="maker")], "actions": []},
        [
            "pools[0]: unknown protocol 'maker' (expected one of uniswap, sushiswap, "
            "balancer, bancor, curve, dodo)"
        ],
    ),
    # a list is no protocol name, and cannot be looked up in a table either
    "protocol-list": (
        {"pools": [dict(UNI, protocol=["uniswap"])], "actions": []},
        [
            "pools[0]: unknown protocol ['uniswap'] (expected one of uniswap, sushiswap, "
            "balancer, bancor, curve, dodo)"
        ],
    ),
    "fraction-not-a-number": (
        {"pools": [UNI], "actions": [{"action": "add_liquidity", "pool": "uni", "fraction": "1"}]},
        ["actions[0]: fraction must be a finite number"],
    ),
    "amplification-not-a-number": (
        {"pools": [dict(CRV, amplification="10")], "actions": []},
        ["pools[0]: amplification must be a finite number"],
    ),
    "sushiswap-build": (
        {"pools": [{"id": "s", "protocol": "sushiswap", "reserves": [100, -1]}], "actions": []},
        ["pools[0]: reserves must be finite and positive, got (100.0, -1.0)"],
    ),
    "bancor-build": (
        {"pools": [dict(BAL, protocol="bancor", weights=[0.6, 0.6])], "actions": []},
        ["pools[0]: weights must sum to 1, got (0.6, 0.6)"],
    ),
    "balancer-weight-count": (
        {"pools": [dict(BAL, weights=[0.5, 0.3, 0.2])], "actions": []},
        ["pools[0]: one weight per asset required"],
    ),
    "root": ([], ["scenario root must be a JSON object"]),
    "top-level-key": (
        {"pools": [], "actions": [], "fees": 1},
        ["unknown top-level keys: ['fees']"],
    ),
    "output-not-object": (
        {"output": "out", "pools": [], "actions": []},
        ["output must be an object"],
    ),
    "output-keys": (
        {"output": {"stem": "a b", "directory": 3, "format": "csv"}, "pools": [], "actions": []},
        [
            "output: unknown keys ['format']",
            "output: stem must match [A-Za-z0-9_-]+, got 'a b'",
            "output: directory must be a string",
        ],
    ),
    "pools-array": ({"pools": {"uni": UNI}, "actions": []}, ["pools must be an array"]),
    "actions-array": ({"pools": [UNI], "actions": {}}, ["actions must be an array"]),
    "action-object": (
        {"pools": [UNI], "actions": ["swap"]},
        ["actions[0]: action must be an object"],
    ),
    "unknown-action": (
        {"pools": [UNI], "actions": [{"action": "burn", "pool": "uni"}]},
        [
            "actions[0]: unknown action 'burn' (expected one of swap, add_liquidity, "
            "slippage_curve, divergence_curve, cross_section, compare)"
        ],
    ),
    "unknown-action-key": (
        {
            "pools": [UNI],
            "actions": [{"action": "add_liquidity", "pool": "uni", "fraction": 0.1, "fee": 0}],
        },
        ["actions[0]: unknown keys for add_liquidity: ['fee']"],
    ),
    "compare-pools-array": (
        {"pools": [UNI], "actions": [{"action": "compare", "pools": "uni"}]},
        ["actions[0]: pools must be an array of pool ids"],
    ),
    "compare-duplicate-ids": (
        {"pools": [UNI], "actions": [{"action": "compare", "pools": ["uni", "uni"]}]},
        ["actions[0]: duplicate pool ids in compare"],
    ),
    "unknown-kind": (
        {"pools": [UNI], "actions": [{"action": "compare", "pools": ["uni"], "kind": "volume"}]},
        [
            "actions[0]: unknown kind 'volume' (expected one of slippage, divergence_loss, "
            "cross_section)"
        ],
    ),
    "integer-indices": (
        {
            "pools": [UNI],
            "actions": [
                {"action": "swap", "pool": "uni", "input_asset": 0.0, "output_asset": True,
                 "amount": 1}
            ],
        },
        ["actions[0]: input_asset must be an integer", "actions[0]: output_asset must be an integer"],
    ),
    "integer-asset": (
        {"pools": [UNI], "actions": [{"action": "divergence_curve", "pool": "uni", "asset": "1"}]},
        ["actions[0]: asset must be an integer"],
    ),
    "amount": (
        {"pools": [UNI], "actions": [{"action": "swap", "pool": "uni", "amount": math.nan}]},
        ["actions[0]: amount must be a finite number"],
    ),
}


class TestVersion:
    def test_prints_package_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out == f"ammlab {__version__}\n"


class TestValidate:
    def test_valid_scenario_is_silent(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            {
                "pools": [UNI, BAL, CRV, DDO],
                "actions": [{"action": "slippage_curve", "pool": "uni"}],
            },
        )
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_weights_must_sum_to_one(self, tmp_path, capsys):
        bad = dict(BAL, weights=[0.6, 0.6])
        path = write_scenario(tmp_path, {"pools": [bad], "actions": []})
        assert main(["validate", str(path)]) == 2
        assert "weights must sum to 1" in capsys.readouterr().out

    def test_undefined_pool_reference_is_named(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            {"pools": [UNI], "actions": [{"action": "slippage_curve", "pool": "ghost"}]},
        )
        assert main(["validate", str(path)]) == 2
        assert "'ghost'" in capsys.readouterr().out

    def test_a_spot_rate_past_the_float_range_is_a_problem_in_its_words(self, tmp_path, capsys):
        # r_1*w_0 = 5e-324*0.4 underflows to 0: the rate 0 -> 1 is past the
        # largest float, which each action names where it forms the rate
        pool = dict(BAL, reserves=[1.0, 5e-324], weights=[0.4, 0.6])
        actions = [
            {"action": "swap", "pool": "bal", "amount": 0.5},
            {"action": "slippage_curve", "pool": "bal"},
            {"action": "add_liquidity", "pool": "bal", "fraction": 0.1},
        ]
        path = write_scenario(tmp_path, {"pools": [pool], "actions": actions})
        assert main(["validate", str(path)]) == 2
        refusal = "spot rate inf is outside the float range; slippage undefined"
        assert capsys.readouterr().out.splitlines() == [
            f"actions[{k}]: pool 'bal': {refusal}" for k in range(3)
        ]

    def test_a_library_fault_is_not_a_validation_problem(self, tmp_path, monkeypatch):
        # only an AmmError is a refusal; any other exception is a fault, and
        # propagates rather than exit 2
        def faulty(*args):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(ammlab.weighted, "_swap_output", faulty)
        actions = [{"action": "swap", "pool": "uni", "amount": 10}]
        path = write_scenario(tmp_path, {"pools": [UNI], "actions": actions})
        with pytest.raises(ZeroDivisionError):
            main(["validate", str(path)])

    def test_unparseable_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "cannot parse scenario" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 1

    def test_integers_beyond_the_float_range_rejected(self, tmp_path, capsys):
        huge = "1" + "0" * 400
        path = tmp_path / "huge.json"
        path.write_text(
            '{"pools": [{"id": "u", "protocol": "uniswap", "reserves": [%s, 100]}],'
            ' "actions": [{"action": "slippage_curve", "pool": "u",'
            ' "grid": {"start": 0.1, "stop": 0.5, "points": %s}}]}' % (huge, huge),
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == 2
        out = capsys.readouterr().out
        assert "pools[0]: reserves must be a list of finite numbers" in out
        assert "actions[0]: " in out

    def test_unknown_pool_keys_rejected(self):
        problems = validate_scenario_data(
            {"pools": [dict(UNI, fee=0.003)], "actions": []}
        )
        assert any("unknown keys" in p for p in problems)

    def test_divergence_on_dodo_rejected(self):
        problems = validate_scenario_data(
            {
                "pools": [DDO],
                "actions": [{"action": "divergence_curve", "pool": "ddo"}],
            }
        )
        assert any("does not apply to dodo" in p for p in problems)

    def test_duplicate_pool_ids_rejected(self):
        problems = validate_scenario_data({"pools": [UNI, UNI], "actions": []})
        assert any("duplicate pool id" in p for p in problems)

    def test_numeraire_cannot_appreciate(self):
        problems = validate_scenario_data(
            {
                "pools": [UNI],
                "actions": [{"action": "divergence_curve", "pool": "uni", "asset": 0}],
            }
        )
        assert any("numeraire" in p for p in problems)

    def test_compare_with_a_malformed_pool_reports_problems(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            {
                "pools": [UNI, dict(CRV, reserves=[100, None])],
                "actions": [{"action": "compare", "pools": ["uni", "crv"]}],
            },
        )
        assert main(["validate", str(path)]) == 2
        assert "pools[1]: reserves must be a list of finite numbers" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "pools[1]: reserves" in capsys.readouterr().err
        assert not out.exists()

    def test_object_grid_must_resolve_strictly_increasing(self, tmp_path, capsys):
        grid = {"start": 1, "stop": 1.0000000000000004, "points": 10, "spacing": "linear"}
        path = write_scenario(
            tmp_path,
            {
                "pools": [UNI],
                "actions": [{"action": "divergence_curve", "pool": "uni", "grid": grid}],
            },
        )
        assert main(["validate", str(path)]) == 2
        assert "actions[0]: grid values must be strictly increasing" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_object_grid_points_are_capped(self, tmp_path, capsys):
        grid = {"start": 0.01, "stop": 0.5, "points": 100000000}
        path = write_scenario(
            tmp_path,
            {
                "pools": [UNI],
                "actions": [{"action": "slippage_curve", "pool": "uni", "grid": grid}],
            },
        )
        assert main(["validate", str(path)]) == 2
        assert (
            "actions[0]: a grid holds at most 1000000 points, got 100000000"
            in capsys.readouterr().out
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_object_grid_span_must_be_finite(self, tmp_path, capsys):
        grid = {"start": -1e308, "stop": 1e308, "points": 3, "spacing": "linear"}
        path = write_scenario(
            tmp_path,
            {
                "pools": [UNI],
                "actions": [{"action": "divergence_curve", "pool": "uni", "grid": grid}],
            },
        )
        assert main(["validate", str(path)]) == 2
        assert (
            "actions[0]: linear grid needs finite bounds and span, got [-1e+308, 1e+308]"
            in capsys.readouterr().out
        )

    def test_a_default_cross_section_grid_is_judged(self, tmp_path, capsys):
        # [0.1*r, 10*r] around r = 1e308 overflows: validate refuses what run
        # would refuse, in the same words
        pool = dict(UNI, reserves=[1e308, 1e308])
        path = write_scenario(
            tmp_path,
            {
                "pools": [pool],
                "actions": [
                    {"action": "cross_section", "pool": "uni"},
                    {"action": "compare", "pools": ["uni"], "kind": "cross_section",
                     "grid": [1e307, 1e308]},
                    {"action": "compare", "pools": ["uni"], "kind": "cross_section"},
                ],
            },
        )
        refusal = "log grid needs finite bounds and span, got [1.0000000000000001e+307, inf]"
        expected = f"actions[0]: pool 'uni': {refusal}\nactions[2]: pool 'uni': {refusal}\n"
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == expected
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_library_domain_errors_are_reported_per_pool(self):
        problems = validate_scenario_data(
            {
                "pools": [UNI, CRV, DDO, dict(CRV, id="crv3", reserves=[100, 200, 300])],
                "actions": [
                    {"action": "cross_section", "pool": "uni", "output_asset": 5},
                    {"action": "compare", "pools": ["crv", "ddo"], "kind": "divergence_loss"},
                    {"action": "swap", "pool": "crv", "input_asset": 1, "output_asset": 1,
                     "amount": 1},
                    {"action": "divergence_curve", "pool": "crv3", "asset": -1},
                    {"action": "add_liquidity", "pool": "uni", "fraction": -1},
                ],
            }
        )
        assert problems == [
            "actions[0]: pool 'uni': asset index 5 out of range for 2 assets",
            "actions[1]: divergence loss does not apply to dodo pool 'ddo'",
            "actions[2]: pool 'crv': swap needs distinct input and output assets",
            "actions[3]: pool 'crv3': asset index -1 out of range for 3 assets",
            "actions[4]: fraction must exceed -1, got -1",
        ]

    def test_the_library_judges_a_grid_domain_then_its_order(self):
        assert validate_scenario_data(_slippage_on([0.5, 1e300, 0.1])) == [
            "actions[0]: normalized trade sizes must lie in (0, 0.95], got 1e+300"
        ]
        # an unordered grid leaves the pools' own problems to be reported
        curve = {"action": "divergence_curve", "pool": "ddo", "grid": [0.5, 0.1]}
        assert validate_scenario_data({"pools": [DDO], "actions": [curve]}) == [
            "actions[0]: grid values must be strictly increasing",
            "actions[0]: divergence loss does not apply to dodo pool 'ddo'",
        ]

    @pytest.mark.parametrize("document, expected", list(REFUSALS.values()), ids=list(REFUSALS))
    def test_every_refusal_is_reported_exactly(self, document, expected):
        assert validate_scenario_data(document) == expected

    @pytest.mark.parametrize("input_asset", [1, 7])
    def test_divergence_compare_ignores_the_input_asset(self, tmp_path, input_asset):
        # a divergence series reads only its appreciating asset, output_asset
        compare = {"action": "compare", "pools": ["uni"], "kind": "divergence_loss",
                   "input_asset": input_asset, "output_asset": 1, "grid": [0.5]}
        curve = {"action": "divergence_curve", "pool": "uni", "asset": 1, "grid": [0.5]}
        data = {"pools": [UNI], "actions": [compare, curve]}
        assert validate_scenario_data(data) == []
        path = write_scenario(tmp_path, data)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (
            (out / "scenario_a000_divergence_loss_uni.csv").read_bytes()
            == (out / "scenario_a001_divergence_loss_uni.csv").read_bytes()
        )

    def test_series_asset_pair_is_judged_once(self, monkeypatch):
        # a series' pair is judged by its sweep; a swap's goes through
        # apply_swap, which quotes without the swap kernel
        calls = []
        original = ammlab.analysis.swap_kernel

        def counting(*args):
            calls.append(args[1:])
            return original(*args)

        monkeypatch.setattr(ammlab.analysis, "swap_kernel", counting)
        actions = [
            {"action": "swap", "pool": "uni", "amount": 1},
            {"action": "slippage_curve", "pool": "uni"},
            {"action": "cross_section", "pool": "uni", "input_asset": 1, "output_asset": 0},
        ]
        assert validate_scenario_data({"pools": [UNI], "actions": actions}) == []
        assert calls == [(0, 1), (1, 0)]

    def test_divergence_compare_names_the_numeraire(self):
        compare = {"action": "compare", "pools": ["uni"], "kind": "divergence_loss",
                   "input_asset": 1, "output_asset": 0}
        assert validate_scenario_data({"pools": [UNI], "actions": [compare]}) == [
            "actions[0]: pool 'uni': asset 0 is the numeraire; pick a different "
            "appreciating asset"
        ]

    def test_slippage_grid_domain_enforced(self):
        problems = validate_scenario_data(
            {
                "pools": [UNI],
                "actions": [
                    {"action": "slippage_curve", "pool": "uni", "grid": [0.5, 0.96]}
                ],
            }
        )
        assert any("(0, 0.95]" in p for p in problems)


class TestRun:
    def test_constant_product_slippage_equals_the_grid(self, tmp_path):
        path = write_scenario(
            tmp_path,
            {
                "pools": [UNI],
                "actions": [
                    {
                        "action": "slippage_curve",
                        "pool": "uni",
                        "grid": {"start": 0.01, "stop": 0.9, "points": 50},
                    }
                ],
            },
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        header, rows = read_csv_columns(out / "scenario_a000_slippage_uni.csv")
        assert header == ["grid", "value", "pool", "protocol", "hyperparameters"]
        assert len(rows) == 50
        for row in rows:
            grid, value = float(row[0]), float(row[1])
            assert abs(value - grid) <= 1e-12
            assert row[2:] == ["uni", "uniswap", "weights=0.5|0.5"]

    def test_empty_actions(self, tmp_path):
        path = write_scenario(tmp_path, {"pools": [UNI], "actions": []})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        receipts = out / "scenario_receipts.log"
        assert receipts.exists()
        assert receipts.read_bytes() == b""
        assert list(out.glob("*.csv")) == []

    def test_run_builds_each_pool_and_grid_once(self, tmp_path, monkeypatch):
        # run executes the pools and grids that validation built, and takes
        # its transitions from validation's replay
        calls = {"stableswap_pool": 0, "log_grid": 0, "apply_swap": 0,
                 "add_liquidity_proportional": 0}

        def counting(name):
            original = getattr(ammlab.cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(ammlab.cli, name, counting(name))
        grid = {"start": 0.01, "stop": 0.9, "points": 20}
        path = write_scenario(
            tmp_path,
            {"pools": [CRV], "actions": [
                {"action": "swap", "pool": "crv", "amount": 10},
                {"action": "add_liquidity", "pool": "crv", "fraction": 0.1},
                {"action": "slippage_curve", "pool": "crv", "grid": grid},
            ]},
        )
        assert run_scenario(path, out_dir=tmp_path / "out") == 0
        assert calls == {"stableswap_pool": 1, "log_grid": 1, "apply_swap": 1,
                         "add_liquidity_proportional": 1}

    def test_run_builds_each_default_cross_section_grid_once(self, tmp_path, monkeypatch):
        # validate builds a grid-less cross-section's default grid to judge
        # it, and run sweeps the same grid: three series on input reserves of
        # 100 build it once
        built = []
        original = ammlab.analysis.log_grid

        def counting(*args):
            built.append(args)
            return original(*args)

        ammlab.analysis.default_cross_section_grid.cache_clear()
        monkeypatch.setattr(ammlab.analysis, "log_grid", counting)
        curve = {"id": "c", "protocol": "curve", "reserves": [100, 120], "amplification": 10}
        path = write_scenario(
            tmp_path,
            {"pools": [UNI, curve], "actions": [
                {"action": "cross_section", "pool": "uni"},
                {"action": "compare", "pools": ["uni", "c"], "kind": "cross_section"},
            ]},
        )
        assert run_scenario(path, out_dir=tmp_path / "out") == 0
        assert len(list((tmp_path / "out").glob("*.csv"))) == 3
        assert built == [(10.0, 1000.0, 50)]

    def test_validation_binds_each_sweep_and_run_calls_it_on_its_grid(
        self, tmp_path, monkeypatch
    ):
        # validate judges each series' bound sweep on the empty grid; run
        # replays validation, then calls each sweep once more, in action order
        grids = []
        original = ammlab.cli.slippage_curve

        def recording(state, i, o, grid, **labels):
            grids.append((labels["pool_id"], grid))
            return original(state, i, o, grid, **labels)

        monkeypatch.setattr(ammlab.cli, "slippage_curve", recording)
        grid = [0.1, 0.2, 0.5]
        path = write_scenario(tmp_path, {"pools": [UNI, BAL, CRV], "actions": [
            {"action": "compare", "pools": ["uni", "bal", "crv"], "grid": grid},
            {"action": "slippage_curve", "pool": "bal"},
        ]})
        judged = [("uni", ()), ("bal", ()), ("crv", ()), ("bal", ())]
        assert main(["validate", str(path)]) == 0
        assert grids == judged
        grids.clear()
        assert run_scenario(path, out_dir=tmp_path / "out") == 0
        explicit = tuple(grid)
        assert grids == judged + [("uni", explicit), ("bal", explicit), ("crv", explicit),
                                  ("bal", None)]

    def test_the_readme_scenario_validates_and_runs(self, tmp_path):
        readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Command-line interface", 1)[1]
        data = json.loads(section.split("```json\n", 1)[1].split("\n```", 1)[0])
        assert validate_scenario_data(data) == []
        path = write_scenario(tmp_path, data)
        assert run_scenario(path, out_dir=tmp_path / "out") == 0

    def test_receipts_record_transitions(self, tmp_path):
        path = write_scenario(
            tmp_path,
            {
                "pools": [UNI],
                "actions": [
                    {
                        "action": "swap",
                        "pool": "uni",
                        "input_asset": 0,
                        "output_asset": 1,
                        "amount": 10,
                    },
                    {"action": "add_liquidity", "pool": "uni", "fraction": 0.1},
                ],
            },
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        lines = (out / "scenario_receipts.log").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("action 000 swap pool=uni")
        assert "rule=invariant_preserved" in lines[0]
        assert lines[0].endswith("passed=yes")
        assert lines[1].startswith("action 001 add_liquidity pool=uni")
        assert "rule=spot_rates_preserved" in lines[1]
        assert lines[1].endswith("passed=yes")

    def test_swaps_move_the_state_forward(self, tmp_path):
        # two consecutive swaps run against the evolving state
        path = write_scenario(
            tmp_path,
            {
                "pools": [UNI],
                "actions": [
                    {"action": "swap", "pool": "uni", "amount": 10},
                    {"action": "swap", "pool": "uni", "amount": 10},
                ],
            },
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        lines = (out / "scenario_receipts.log").read_text(encoding="utf-8").splitlines()
        first = float(lines[0].split("x_out=")[1].split()[0])
        second = float(lines[1].split("x_out=")[1].split()[0])
        assert math.isclose(first, 100.0 / 11.0, rel_tol=1e-12)
        assert second < first

    def test_unattainable_points_keep_partial_output(self, tmp_path, capsys):
        pool = dict(CRV, amplification=1e8)
        path = write_scenario(
            tmp_path,
            {
                "pools": [pool],
                "actions": [
                    {"action": "divergence_curve", "pool": "crv", "grid": [-0.5, 0.5, 1e300]}
                ],
            },
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        manifest = (out / "scenario_failures.txt").read_text(encoding="utf-8")
        assert "unattainable" in manifest
        _, rows = read_csv_columns(out / "scenario_a000_divergence_loss_crv.csv")
        # -0.5 and +0.5 reach the constant-sum limits; 1e300 leaves the
        # floating-point range
        assert abs(float(rows[0][1]) - (-1.0 / 3.0)) <= 1e-3
        assert abs(float(rows[1][1]) - (-0.2)) <= 1e-3
        assert math.isnan(float(rows[2][1]))

    def test_an_underflowing_rebalance_is_an_unattainable_point(self, tmp_path, capsys):
        # at A = 5e-324 a rebalanced x_k underflows to 0 at the first shift
        pool = {
            "id": "c4", "protocol": "curve", "amplification": 5e-324,
            "reserves": [4.0516221510570526e+62, 1.7298228857387102e+77,
                         3.363231831095374e+17, 5.859623136055229e+47],
        }
        curve = {"action": "divergence_curve", "pool": "c4", "asset": 1,
                 "grid": [-0.7394837533598139, -0.5]}
        path = write_scenario(tmp_path, {"pools": [pool], "actions": [curve]})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        manifest = (out / "scenario_failures.txt").read_text(encoding="utf-8")
        assert "is unattainable: the curve is not representable" in manifest
        _, rows = read_csv_columns(out / "scenario_a000_divergence_loss_c4.csv")
        assert math.isnan(float(rows[0][1]))
        assert math.isfinite(float(rows[1][1]))

    def test_domain_error_during_execution(self, tmp_path, capsys):
        # the validate pass replays the swap, so run refuses it before writing
        path = write_scenario(
            tmp_path,
            {
                "pools": [UNI],
                "actions": [{"action": "swap", "pool": "uni", "amount": -150}],
            },
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "actions[0]: pool 'uni': input -150.0 exhausts reserve 100.0\n"
        )
        assert not out.exists()

    def test_overflowing_reverse_swap_is_a_domain_error(self, tmp_path, capsys):
        # (r_in / r_in')^(w_i / w_o) leaves the float range
        pool = dict(BAL, weights=[0.99, 0.01])
        path = write_scenario(
            tmp_path,
            {"pools": [pool], "actions": [{"action": "swap", "pool": "bal", "amount": -99.99999}]},
        )
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "actions[0]: pool 'bal': input -99.99999 takes output reserve 100.0 "
            "past the floating-point range\n"
        )

    def test_solver_failure_during_execution(self, tmp_path, capsys):
        # a swap whose quadratic leaves the float range fails to solve: no
        # validation problem, but at run time the earlier receipts are kept,
        # the failure goes to the manifest and no later action runs
        document = {
            "pools": [CRV],
            "actions": [
                {"action": "swap", "pool": "crv", "amount": 1},
                {"action": "swap", "pool": "crv", "amount": 1e300},
                {"action": "slippage_curve", "pool": "crv", "grid": [0.5]},
                {"action": "swap", "pool": "crv", "amount": 1},
            ],
        }
        assert validate_scenario_data(document) == []
        path = write_scenario(tmp_path, document)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in out.iterdir()) == [
            "scenario_failures.txt", "scenario_receipts.log"
        ]
        assert (out / "scenario_failures.txt").read_text(encoding="utf-8") == (
            "action 001 swap: swap quadratic produced a non-positive reserve 0.0\n"
        )
        receipts = (out / "scenario_receipts.log").read_text(encoding="utf-8").splitlines()
        assert len(receipts) == 1
        assert receipts[0].startswith("action 000 swap pool=crv")

    def test_an_underflowing_a_times_p0_is_a_solver_failure(self, tmp_path, capsys):
        # A*P0 = 1e-300 * 1.1e-30 underflows to 0 in the swap quadratic's
        # constant term, which was a bare ZeroDivisionError in both commands
        crv = dict(CRV, reserves=[1e-30, 2e-30], amplification=1e-300)
        swap = {"action": "swap", "pool": "crv", "amount": 1e-31}
        path = write_scenario(tmp_path, {"pools": [crv], "actions": [swap]})
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", "")
        assert (out / "scenario_failures.txt").read_text(encoding="utf-8") == (
            "action 000 swap: swap quadratic produced a non-positive reserve 0.0\n"
        )

    def test_arithmetic_error_during_execution(self, tmp_path, capsys):
        # reserves scaled to ~1e302 leave the floating-point range of the
        # stableswap spot rate: a domain error with exit 2, not a traceback
        path = write_scenario(
            tmp_path,
            {
                "pools": [CRV],
                "actions": [{"action": "add_liquidity", "pool": "crv", "fraction": 1e300}],
            },
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "actions[0]: pool 'crv': (D/n)^n leaves the floating-point range at D=2e+302\n"
        )

    def test_the_run_goes_on_past_a_failing_point(self, tmp_path, capsys):
        # at A = 1e-300 every slippage point of the curve pool has no
        # solution; both pools' series are still written and the swap after
        # them still runs
        crv = dict(CRV, reserves=[100, 120], amplification=1e-300)
        grid = [0.01, 0.1, 0.5]
        document = {"pools": [crv, UNI], "actions": [
            {"action": "compare", "pools": ["crv", "uni"], "kind": "slippage", "grid": grid},
            {"action": "swap", "pool": "uni", "amount": 10},
        ]}
        path = write_scenario(tmp_path, document)
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in out.iterdir()) == [
            "scenario_a000_slippage_crv.csv", "scenario_a000_slippage_uni.csv",
            "scenario_failures.txt", "scenario_receipts.log",
        ]
        _, rows = read_csv_columns(out / "scenario_a000_slippage_crv.csv")
        assert all(math.isnan(float(row[1])) for row in rows) and len(rows) == 3
        _, rows = read_csv_columns(out / "scenario_a000_slippage_uni.csv")
        # constant product: the slippage is the trade size itself
        assert [float(row[1]) for row in rows] == pytest.approx(grid, rel=1e-12)
        assert (out / "scenario_failures.txt").read_text(encoding="utf-8") == "".join(
            f"action 000 slippage pool=crv point={k} x={g!r}: "
            "NoSolution: swap quadratic produced a non-positive reserve 0.0\n"
            for k, g in enumerate(grid)
        )
        receipts = (out / "scenario_receipts.log").read_text(encoding="utf-8").splitlines()
        assert len(receipts) == 1
        assert receipts[0].startswith("action 001 swap pool=uni")

    def test_an_output_path_that_cannot_be_written_exits_1(self, tmp_path, capsys):
        # the directory is a file or lies under one, or an output file's
        # name is taken by a directory: one stderr line, no traceback
        path = write_scenario(tmp_path, {"pools": [UNI], "actions": []})
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        (tmp_path / "out" / "scenario_receipts.log").mkdir(parents=True)
        for out in (blocker, blocker / "sub", tmp_path / "out"):
            assert main(["run", str(path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("cannot write output: ") and err.count("\n") == 1
        assert blocker.read_text(encoding="utf-8") == ""

    def test_an_output_name_that_cannot_be_written_exits_1(self, tmp_path, capsys):
        # each series is written as it is formatted: the run stops at the
        # name a directory takes, after the series before it
        path = write_scenario(tmp_path, {"pools": [UNI], "actions": [
            {"action": "slippage_curve", "pool": "uni", "grid": [0.5]},
            {"action": "slippage_curve", "pool": "uni", "grid": [0.5]},
            {"action": "slippage_curve", "pool": "uni", "grid": [0.5]},
        ]})
        out = tmp_path / "out"
        (out / "scenario_a001_slippage_uni.csv").mkdir(parents=True)
        assert main(["run", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == [
            "scenario_a000_slippage_uni.csv", "scenario_a001_slippage_uni.csv"
        ]

    def test_a_solver_failure_keeps_the_series_before_it(self, tmp_path, capsys):
        # the series before the failing swap is written, the one after it
        # never runs, and the receipts and the manifest follow
        path = write_scenario(tmp_path, {"pools": [CRV, UNI], "actions": [
            {"action": "slippage_curve", "pool": "uni", "grid": [0.5]},
            {"action": "swap", "pool": "crv", "amount": 1e300},
            {"action": "slippage_curve", "pool": "uni", "grid": [0.5]},
        ]})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in out.iterdir()) == [
            "scenario_a000_slippage_uni.csv", "scenario_failures.txt", "scenario_receipts.log"
        ]
        assert (out / "scenario_receipts.log").read_text(encoding="utf-8") == ""
        assert (out / "scenario_failures.txt").read_text(encoding="utf-8") == (
            "action 001 swap: swap quadratic produced a non-positive reserve 0.0\n"
        )

    def test_peak_memory_does_not_grow_with_the_number_of_series(self, tmp_path):
        # a series' CSV is written before the next one is formatted, so a
        # run holds one series' text at a time; holding every CSV to the end
        # peaks about 2.1 times higher for 8 series than for 2
        grid = {"start": 1e-3, "stop": 0.9, "points": 5000}

        def scenario(n):
            pools = [dict(UNI, id=f"u{k}", reserves=[100 + k, 100]) for k in range(n)]
            return write_scenario(tmp_path, {"pools": pools, "actions": [
                {"action": "compare", "pools": [p["id"] for p in pools], "grid": grid}
            ]}, name=f"s{n}.json")

        assert run_scenario(scenario(2), out_dir=tmp_path / "warm") == 0
        peaks = []
        for n in (2, 8):
            path = scenario(n)
            tracemalloc.start()
            try:
                assert run_scenario(path, out_dir=tmp_path / f"out{n}") == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]

    def test_each_default_grid_is_formatted_once(self, tmp_path, monkeypatch):
        # two divergence curves share the default shift grid, a slippage
        # compare the default trade grid, and a cross-section compare has one
        # default grid per input reserve: 100 twice, then 200
        calls = []
        original = ammlab.cli.format_floats
        monkeypatch.setattr(
            ammlab.cli, "format_floats", lambda values: calls.append(values) or original(values)
        )
        pools = [UNI, dict(UNI, id="uni2", reserves=[100, 50]),
                 dict(UNI, id="uni3", reserves=[200, 100]), BAL, CRV]
        cross = ["uni", "uni2", "uni3"]
        path = write_scenario(tmp_path, {"pools": pools, "actions": [
            {"action": "divergence_curve", "pool": "crv"},
            {"action": "divergence_curve", "pool": "bal"},
            {"action": "compare", "pools": cross, "kind": "cross_section"},
            {"action": "compare", "pools": ["uni", "bal", "crv"]},
        ]})
        assert run_scenario(path, out_dir=tmp_path / "default") == 0
        grids = [default_shift_grid(), default_cross_section_grid(100.0),
                 default_cross_section_grid(200.0), default_trade_grid()]
        assert calls == grids
        # the same files as with every default grid written out
        explicit = write_scenario(tmp_path, {"pools": pools, "actions": [
            {"action": "divergence_curve", "pool": "crv", "grid": list(grids[0])},
            {"action": "divergence_curve", "pool": "bal", "grid": list(grids[0])},
            *({"action": "cross_section", "pool": pid, "grid": list(grid)}
              for pid, grid in zip(cross, (grids[1], grids[1], grids[2]))),
            {"action": "compare", "pools": ["uni", "bal", "crv"], "grid": list(grids[3])},
        ]}, name="explicit.json")
        assert run_scenario(explicit, out_dir=tmp_path / "explicit") == 0

        def files(directory):
            # the stem and the action indices differ: a compare became three actions
            return {p.name.split("_", 2)[-1]: p.read_bytes() for p in directory.iterdir()}

        assert files(tmp_path / "default") == files(tmp_path / "explicit")
        assert len(files(tmp_path / "default")) == 9

    def test_parallel_must_be_positive(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"pools": [UNI], "actions": []})
        assert main(["run", str(path), "--parallel", "0", "--out", str(tmp_path)]) == 2
        assert "--parallel" in capsys.readouterr().err

    def test_validation_problems_block_execution(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path, {"pools": [dict(UNI, reserves=[100])], "actions": []}
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_output_directory_resolves_against_the_scenario_file(self, tmp_path):
        nested = tmp_path / "nested"
        nested.mkdir()
        path = write_scenario(
            nested,
            {
                "output": {"stem": "demo", "directory": "data"},
                "pools": [UNI],
                "actions": [],
            },
        )
        assert run_scenario(path) == 0
        assert (nested / "data" / "demo_receipts.log").exists()

    def test_unparseable_scenario_is_not_run(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert run_scenario(path, out_dir=tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith("cannot parse scenario: ")
        assert not (tmp_path / "out").exists()

    def test_output_defaults_to_the_working_directory(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, {"pools": [UNI], "actions": []})
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run_scenario(path) == 0
        assert [p.name for p in work.iterdir()] == ["scenario_receipts.log"]

    def test_out_flag_overrides_the_scenario_directory(self, tmp_path):
        path = write_scenario(
            tmp_path,
            {
                "output": {"stem": "demo", "directory": "data"},
                "pools": [UNI],
                "actions": [],
            },
        )
        override = tmp_path / "override"
        assert run_scenario(path, out_dir=override) == 0
        assert (override / "demo_receipts.log").exists()
        assert not (tmp_path / "data").exists()


class TestValidateAgreesWithRun:
    """validate replays every transition as run does, so a scenario that
    validates runs each of them, and one that fails at a transition fails
    both commands with the same lines before run writes anything."""

    TRANSITION_FAILURES = {
        # the swap takes the input reserve to 1.1e308, where the default
        # cross-section grid [0.1*r, 10*r] leaves the float range
        "swap-then-default-grid": (
            {
                "pools": [dict(UNI, reserves=[1e307, 1e307])],
                "actions": [
                    {"action": "swap", "pool": "uni", "amount": 1e308},
                    {"action": "cross_section", "pool": "uni"},
                ],
            },
            "actions[1]: pool 'uni': log grid needs finite bounds and span, "
            "got [1.1e+307, inf]\n",
        ),
        "series-then-overdrawn-swap": (
            {
                "pools": [UNI],
                "actions": [
                    {"action": "slippage_curve", "pool": "uni", "grid": [0.5]},
                    {"action": "swap", "pool": "uni", "amount": -150},
                ],
            },
            "actions[1]: pool 'uni': input -150.0 exhausts reserve 100.0\n",
        ),
        # the spot rate 1e-400 underflows to 0 and 1e400 overflows to inf:
        # every slippage point divides by it
        **{
            f"slippage-on-a-spot-rate-of-{rate}": (
                {
                    "pools": [dict(UNI, reserves=reserves)],
                    "actions": [{"action": "slippage_curve", "pool": "uni"}],
                },
                f"actions[0]: pool 'uni': spot rate {rate} is outside the float range; "
                "slippage undefined\n",
            )
            for rate, reserves in (("0.0", [1e-200, 1e200]), ("inf", [1e200, 1e-200]))
        },
        # a swap's slippage divides by the same rate
        **{
            f"swap-on-a-spot-rate-of-{rate}": (
                {
                    "pools": [dict(UNI, reserves=reserves)],
                    "actions": [{"action": "swap", "pool": "uni", "amount": amount}],
                },
                f"actions[0]: pool 'uni': spot rate {rate} is outside the float range; "
                "slippage undefined\n",
            )
            for rate, reserves, amount in (
                ("0.0", [1e-200, 1e200], 1e-201),
                ("inf", [1e200, 1e-200], 1e199),
            )
        },
        # the swap quadratic's c = -P*A*C2^2 overflows: the swap returned inf
        # and apply_swap named a reserve of -inf
        "swap-past-the-pmm-curve's-range": (
            {"pools": [DDO_PAST_RANGE],
             "actions": [{"action": "swap", "pool": "ddo", "amount": 0.5}]},
            "actions[0]: pool 'ddo': the PMM curve at reserve 1.5 leaves the floating-point "
            "range\n",
        ),
    }

    @pytest.mark.parametrize(
        "document, expected", list(TRANSITION_FAILURES.values()), ids=list(TRANSITION_FAILURES)
    )
    def test_a_failing_transition_fails_both_commands(self, tmp_path, capsys, document, expected):
        path = write_scenario(tmp_path, document)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == expected
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_a_failing_transition_leaves_the_state(self):
        # the refused swap does not move the pool, so the next one is judged
        # on the reserves of 100
        actions = [
            {"action": "swap", "pool": "uni", "amount": -150},
            {"action": "swap", "pool": "uni", "amount": -90},
        ]
        assert validate_scenario_data({"pools": [UNI], "actions": actions}) == [
            "actions[0]: pool 'uni': input -150.0 exhausts reserve 100.0"
        ]

    def test_a_series_is_judged_on_the_replayed_state(self):
        # after the swap, asset 0's reserve is 1.1e308 and the default grid
        # around it overflows; asset 1's shrank and its grid is fine
        pool = dict(UNI, reserves=[1e307, 1e307])
        actions = [
            {"action": "swap", "pool": "uni", "amount": 1e308},
            {"action": "cross_section", "pool": "uni", "input_asset": 1, "output_asset": 0},
            {"action": "compare", "pools": ["uni"], "kind": "cross_section"},
        ]
        assert validate_scenario_data({"pools": [pool], "actions": actions}) == [
            "actions[2]: pool 'uni': log grid needs finite bounds and span, got [1.1e+307, inf]"
        ]

    def test_actions_after_a_solver_failure_are_not_judged(self, tmp_path, capsys):
        # run stops at the swap that fails to solve, so validate does not
        # judge the pool's overdrawn swap after it
        actions = [
            {"action": "swap", "pool": "crv", "amount": 1e300},
            {"action": "swap", "pool": "crv", "amount": -150},
        ]
        path = write_scenario(tmp_path, {"pools": [CRV], "actions": actions})
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == ""
        assert (out / "scenario_failures.txt").read_text(encoding="utf-8") == (
            "action 000 swap: swap quadratic produced a non-positive reserve 0.0\n"
        )

    def test_a_pmm_curve_past_the_float_range_is_a_nan_row(self, tmp_path, capsys):
        # the same pool's slippage read -1 and its cross-section -inf, and
        # run exited 0
        actions = [{"action": "slippage_curve", "pool": "ddo", "grid": [0.5]},
                   {"action": "cross_section", "pool": "ddo", "grid": [0.5, 2]}]
        path = write_scenario(tmp_path, {"pools": [DDO_PAST_RANGE], "actions": actions})
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == ""
        _, rows = read_csv_columns(out / "scenario_a000_slippage_ddo.csv")
        assert [row[:2] for row in rows] == [["0.5", "nan"]]
        _, rows = read_csv_columns(out / "scenario_a001_conservation_cross_section_ddo.csv")
        assert [row[:2] for row in rows] == [["0.5", "9.9999999999999998e+149"], ["2", "nan"]]
        refusal = "DomainError: the PMM curve at reserve {} leaves the floating-point range\n"
        assert (out / "scenario_failures.txt").read_text(encoding="utf-8") == (
            "action 000 slippage pool=ddo point=0 x=0.5: " + refusal.format(1.5)
            + "action 001 conservation_cross_section pool=ddo point=1 x=2.0: "
            + refusal.format(2.0)
        )

    def test_a_failing_series_point_is_a_nan_row(self, tmp_path, capsys):
        # validate evaluates no series point: a trade whose output rounds to
        # zero is found by run, which writes it as a NaN row and exits 3
        pool = dict(UNI, reserves=[1e150, 1e-150])
        curve = {"action": "slippage_curve", "pool": "uni", "grid": [1e-300]}
        path = write_scenario(tmp_path, {"pools": [pool], "actions": [curve]})
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == ""
        _, rows = read_csv_columns(out / "scenario_a000_slippage_uni.csv")
        assert [row[:2] for row in rows] == [["1e-300", "nan"]]
        assert (out / "scenario_failures.txt").read_text(encoding="utf-8") == (
            "action 000 slippage pool=uni point=0 x=1e-300: "
            "InfeasibleTrade: input 1e-150 produced zero output; slippage undefined\n"
        )


class TestDeterminism:
    SCENARIO = {
        "output": {"stem": "det"},
        "pools": [UNI, BAL, CRV, DDO],
        "actions": [
            {"action": "swap", "pool": "crv", "amount": 17.5},
            {"action": "add_liquidity", "pool": "bal", "fraction": 0.25},
            {
                "action": "compare",
                "pools": ["uni", "bal", "crv", "ddo"],
                "kind": "slippage",
            },
            {"action": "divergence_curve", "pool": "crv", "grid": [-0.5, 0.21, 1.0]},
            {"action": "cross_section", "pool": "uni"},
        ],
    }

    def collect(self, directory):
        return {
            p.name: p.read_bytes() for p in sorted(directory.iterdir())
        }

    def test_reruns_and_parallelism_are_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, self.SCENARIO)
        outputs = []
        for name, parallel in (("one", 1), ("two", 1), ("eight", 8)):
            out = tmp_path / name
            assert run_scenario(path, out_dir=out, parallel=parallel) == 0
            outputs.append(self.collect(out))
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]
        # four comparison series plus two single-pool series plus the log
        assert sum(1 for name in outputs[0] if name.endswith(".csv")) == 6

    def test_divergence_heavy_scenario_solves_every_point(self, tmp_path):
        scenario = SCENARIOS / "divergence_heavy.json"
        outputs = []
        for parallel in ("1", "2"):
            out = tmp_path / parallel
            assert main(["run", str(scenario), "--parallel", parallel, "--out", str(out)]) == 0
            outputs.append(self.collect(out))
        assert outputs[0] == outputs[1]
        assert not outputs[0].get("divergence_heavy_failures.txt")
        csvs = [name for name in outputs[0] if name.endswith(".csv")]
        assert len(csvs) == 5
        for name in csvs:
            rows = outputs[0][name].decode("utf-8").splitlines()[1:]
            assert len(rows) == 200
            assert all(math.isfinite(float(row.split(",")[1])) for row in rows)


class TestSeriesCsv:
    HEADER = "grid,value,pool,protocol,hyperparameters\n"

    def series(self, x, y):
        return CurveSeries(
            kind=SeriesKind.SLIPPAGE, pool_id="p-1", protocol="curve",
            hyperparameters="amplification=10%", x_values=x, y_values=y,
        )

    def test_an_empty_series_is_its_header(self):
        assert _series_csv(self.series((), ()), []) == self.HEADER

    def test_rows_keep_nan_and_negative_zero(self):
        x = (0.1, 0.25, 0.5)
        y = (math.nan, -0.0, 1.0 / 3.0)
        text = _series_csv(self.series(x, y), ["0.10000000000000001", "0.25", "0.5"])
        assert text == self.HEADER + (
            "0.10000000000000001,nan,p-1,curve,amplification=10%\n"
            "0.25,-0,p-1,curve,amplification=10%\n"
            "0.5,0.33333333333333331,p-1,curve,amplification=10%\n"
        )


# a trader's session on each family, as the trade-stream benchmark drives it
TRADES = """
from ammlab import bonding, core, numerics
pools = [
    core.uniswap_pool(100.0, 100.0),
    core.weighted_pool((100.0, 200.0, 300.0), (0.5, 0.3, 0.2)),
    core.pmm_pool(100.0, 100.0, 1.0, 0.5),
    core.stableswap_pool((100.0, 300.0, 600.0), 10.0),
]
for pool in pools:
    core.spot_rate(pool, 0, 1)
    core.slippage(pool, 0, 1, 5.0)
    post = core.apply_swap(pool, 0, 1, 5.0)[0]
    core.add_liquidity_proportional(post, 0.1)
curve = bonding.bonding_curve(100.0, 1000.0, 0.5)
bonding.bonding_sell(bonding.bonding_buy(curve, 10.0)[0], 5.0)
"""


ORACLE = """
from ammlab import core, numerics
for pool in (
    core.weighted_pool((100.0, 200.0, 300.0), (0.5, 0.3, 0.2)),
    core.stableswap_pool((100.0, 300.0, 600.0), 10.0),
):
    curve = core.implicit_conservation(pool)
    numerics.solve_rebalance(curve, pool.reserves, pool.invariant, 2, 0.5)
    numerics.generic_divergence_loss(curve, pool.reserves, pool.invariant, 1, -0.3)
"""


class TestNumpyFreeImport:
    """The package runs without numpy, a test extra only: importing it,
    trading, runs on linear and log grids and the rebalance-and-revalue
    oracle leave numpy unloaded, and importing the package leaves decimal,
    which log grids use, unloaded."""

    @pytest.mark.parametrize(
        "code",
        [
            "import ammlab",
            "import ammlab.cli",
            TRADES,
            ORACLE,
            "from ammlab import cli; cli.main(['run', {scenario!r}, '--out', {out!r}])",
            "import sys, ammlab\n"
            "assert not {{'numpy', 'decimal'}} & set(sys.modules), 'loaded on import'\n"
            "from ammlab import cli\n"
            "assert cli.main(['validate', {log_scenario!r}]) == 0\n"
            "assert cli.main(['run', {log_scenario!r}, '--out', {out!r}]) == 0",
        ],
        ids=["package", "cli", "trades", "oracle", "linear-grid-run", "log-grid-run"],
    )
    def test_numpy_stays_unloaded(self, tmp_path, code):
        code = code.format(
            scenario=str(SCENARIOS / "divergence_heavy.json"),
            log_scenario=str(SCENARIOS / "compare_four.json"),
            out=str(tmp_path / "out"),
        )
        src = str(Path(ammlab.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", code + "\nimport sys; sys.exit('numpy' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr or "numpy was loaded"
