import csv
import json
import os
import stat

import numpy as np
import pytest

import stabvax as sv
from stabvax import bubar, cli, dynamics, ingest, model, policies


def allocate(tmp_path, *flags):
    return cli.main(["--out", str(tmp_path), "--seed", "0", *flags, "allocate"])


class TestAllocate:
    # the benchmark's budget-covid-n20 and budget-age-n5 operations, seed 0
    @pytest.mark.parametrize("model_name, n", [("covid", 20),
                                               ("covid-demographic", 5)])
    def test_undosed_cells_get_no_doses(self, tmp_path, model_name, n):
        # cells the optimum leaves unvaccinated hold exactly 0 doses, not the
        # 1e-9 of their susceptibles that the segment toward the fully
        # vaccinated corner used to leave there
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synthetic": {"seed": 0, "n": n}}))
        assert cli.main(["--config", str(config), "--out", str(tmp_path),
                         "--model", model_name, "--budget", "0.05",
                         "allocate"]) == cli.EXIT_OK
        with open(tmp_path / "allocation.csv", newline="") as fh:
            doses = np.array([float(row["doses"]) for row in csv.DictReader(fh)])
        cells = sv.synthetic_instance(0, n=n, groups=model_name != "covid"
                                      ).net.cell_populations()
        assert not np.any((doses > 0) & (doses < 1e-6 * cells))
        assert np.count_nonzero(doses == 0) > 0

    def test_budgeted_allocation_recertifies(self, tmp_path):
        assert allocate(tmp_path, "--budget", "0.05") == cli.EXIT_OK
        doc = json.loads((tmp_path / "allocation.json").read_text())
        inst = sv.synthetic_instance(0, n=5)
        alpha = doc["achieved_alpha"]
        cert = sv.check_decay_certificate(inst.state0, inst.net, inst.params,
                                          None, np.asarray(doc["v"]), alpha)
        assert cert.satisfied
        assert doc["doses"] <= 0.05 * inst.net.total_population * (1 + 1e-9)
        assert doc["certificate"]["margin"] == pytest.approx(
            -alpha - doc["certificate"]["lambda_max"])
        assert doc["certificate"]["margin"] >= -1e-8
        assert doc["solver"]["lp_calls"] >= doc["solver"]["cuts"] > 0
        for key in ("v", "u", "doses", "dose_vector", "alpha", "certificate",
                    "solver", "achieved_alpha"):
            assert key in doc
        assert (tmp_path / "allocation.csv").read_text().startswith("cell,v,doses")

    def test_unreachable_alpha_exits_infeasible(self, tmp_path):
        params = sv.synthetic_instance(0, n=5).params
        alpha = model.max_certificate_rate(params) - 1e-3
        assert allocate(tmp_path, "--alpha", repr(alpha)) == cli.EXIT_INFEASIBLE

    @pytest.mark.parametrize("model_name, alpha", [
        ("covid", -0.027134), ("covid-demographic", -0.027142),
        ("bubar", -0.017864)])
    def test_no_alpha_or_budget_solves_at_budget_zero(self, tmp_path,
                                                      model_name, alpha):
        # the SEIR model used to exit 3: "give exactly one of alpha or supply"
        docs = []
        for flags in ((), ("--budget", "0")):
            assert allocate(tmp_path, "--model", model_name,
                            *flags) == cli.EXIT_OK
            docs.append((tmp_path / "allocation.json").read_text())
        assert docs[0] == docs[1]
        assert json.loads(docs[0])["achieved_alpha"] == pytest.approx(
            alpha, abs=5e-7)

    @pytest.mark.parametrize("model_name", cli.MODELS)
    @pytest.mark.parametrize("excess", [0.0, 0.1])
    def test_rate_at_or_above_the_limit_exits_infeasible(
            self, tmp_path, capsys, model_name, excess):
        # the same condition on every model: b1 has no value at the rate
        if model_name == "bubar":
            params, _ = bubar.us_like_instance(1.15, seed=0)
            limit = min(1.0 / params.d_e, 1.0 / params.d_i)
        else:
            limit = model.max_certificate_rate(sv.synthetic_instance(
                0, n=5, groups=model_name != "covid").params)
        assert allocate(tmp_path, "--model", model_name, "--alpha",
                        repr(limit + excess)) == cli.EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("infeasible: decay rate") and "below" in err
        assert not (tmp_path / "allocation.json").exists()

    @pytest.mark.parametrize("model_name", cli.MODELS)
    def test_zero_transmission_needs_no_doses(self, tmp_path, capsys,
                                              model_name):
        # the covid models exited 3, "b1 must be positive (no transmission
        # path?)", and the SEIR model warned that its coupling was reducible
        assert allocate(tmp_path, "--model", model_name, "--target-rt", "0",
                        "--budget", "0.05") == cli.EXIT_OK
        doc = json.loads((tmp_path / "allocation.json").read_text())
        assert doc["doses"] == 0 and doc["certificate"]["satisfied"]
        assert cli.main(["--out", str(tmp_path / "compare"), "--model",
                         model_name, "--target-rt", "0", "--horizon", "3",
                         "compare"]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""

    def test_silent_age_group_gets_no_doses(self, tmp_path):
        # an instance file with a zero beta0 group exited 3 as well
        assert cli.main(["--out", str(tmp_path), "--model",
                         "covid-demographic", "calibrate"]) == cli.EXIT_OK
        path = tmp_path / "instance.json"
        inst = json.loads(path.read_text())
        inst["params"]["beta0"][2] = 0.0
        path.write_text(json.dumps(inst))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instance": str(path)}))
        assert cli.main(["--config", str(config), "--out", str(tmp_path),
                         "--budget", "0.05", "allocate"]) == cli.EXIT_OK
        doc = json.loads((tmp_path / "allocation.json").read_text())
        assert doc["certificate"]["satisfied"] and doc["doses"] > 0
        assert not any(doc["v"][2::len(inst["params"]["beta0"])])

    def test_malformed_config_exits_input_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert cli.main(["--config", str(config), "--out", str(tmp_path),
                         "allocate"]) == cli.EXIT_INPUT

    def test_uncertified_allocation_exits_solver_failure(self, tmp_path,
                                                         nudged_gram_route):
        assert allocate(tmp_path, "--alpha", "0") == cli.EXIT_SOLVER
        assert not (tmp_path / "allocation.json").exists()

    @pytest.mark.parametrize("model_name, flags, search", [
        ("covid", ("--budget", "0.05"), "direct"),
        ("covid-demographic", ("--budget", "0.05"), "bisection"),
        ("covid", ("--alpha", "0"), "")])
    def test_solver_reports_search(self, tmp_path, model_name, flags, search):
        assert allocate(tmp_path, "--model", model_name, *flags) == cli.EXIT_OK
        doc = json.loads((tmp_path / "allocation.json").read_text())
        assert doc["solver"]["search"] == search

    @pytest.mark.parametrize("command, config, output", [
        ("compare", {"horizon": [3]}, "summary.csv"),
        ("allocate", {"synthetic": {"seed": [0]}}, "allocation.json")])
    def test_number_of_wrong_type_exits_input_error(self, tmp_path, command,
                                                    config, output):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out),
                         command]) == cli.EXIT_INPUT
        assert not (out / output).exists()


# allocate output at seed 0: (achieved alpha, doses, dose vector), pinned
# before the SEIR model was solved through the shared allocation problem;
# the budgeted bubar and covid cases since max-decay searches directly when
# b1 is one scalar; the solver counts, which are integers, exactly
ALLOCATE_GOLDEN = {
    # counts pinned since the SLP stops once its Collatz-Wielandt bound shows
    # no later step can be accepted (66 before: the last 13 were rejected)
    ("bubar", "--budget", "0.05"): (
        -0.006755838254284464, 50000.0,
        [0.0, 0.0, 6883.75462652, 31861.4477794, 11254.7975941, 0.0, 0.0,
         0.0, 0.0],
        {"search": "direct", "iterations": 53, "cuts": 0, "lp_calls": 53}),
    # counts pinned since the fixed-rate SLP stops once the step LP's value
    # shows no later step can be accepted (85 before: the last 22 were
    # rejected)
    ("bubar", "--alpha", "0"): (
        0.0, 83376.79839614738,
        [0.000179880277444, 0.000191675695285, 17779.6209078, 40608.2864997,
         19998.1258055, 4990.76448872, 0.000168084833708, 9.73122748724e-05,
         5.75027072906e-05],
        {"search": "", "iterations": 63, "cuts": 0, "lp_calls": 63}),
    ("covid", "--budget", "0.05"): (
        -0.013128709001423999, 15858.7,
        [0.0, 13535.6331536, 2200.89454122, 122.172305206, 0.0],
        {"search": "direct", "iterations": 3, "cuts": 2, "lp_calls": 2}),
    # pinned since each bisection probe's eigensolve stops once its bracket
    # decides the probe: the probes' cuts and segment points come from
    # unconverged vectors, so the final solve starts from another cut pool
    # and lands elsewhere on a near-flat face of the optimum (doses +4.8e-9
    # relative, cells 20 and 26 trading 0.36 doses); alpha is unchanged
    ("covid-demographic", "--budget", "0.05"): (
        -0.009575490951538078, 15854.117370036449,
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1764.82062488, 2713.2507397,
         3338.1126635, 0.0, 0.0, 0.0, 296.876530018, 467.333578137,
         571.906842703, 0.0, 0.0, 0.0, 6337.2378856, 0.0, 0.0, 0.0, 0.0, 0.0,
         364.57850551, 0.0, 0.0, 0.0],
        {"search": "bisection", "iterations": 6, "cuts": 12, "lp_calls": 27}),
}


class TestParser:
    """One parser serves every call in a process; no parse leaves a trace
    on the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_parses_do_not_leak(self, capsys):
        parser = cli.build_parser()
        argv = ["--policy", "no-vaccine", "--policy", "population-weighted",
                "compare"]
        first = parser.parse_args(argv)
        assert parser.parse_args(argv) == first
        assert first.policy == ["no-vaccine", "population-weighted"]
        assert parser.parse_args(["compare"]).policy is None
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--model", "sir", "compare"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("usage: stabvax")
        assert "invalid choice: 'sir'" in errors[0]

    def test_unknown_policy_kind_lists_the_kinds(self, tmp_path, capsys):
        # the --policy help does not list the kinds, so that the parser
        # loads no policy module; the error lists them
        assert cli.main(["--out", str(tmp_path), "--policy", "bogus",
                         "--horizon", "3", "compare"]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: unknown policy kind 'bogus'")
        assert all(kind in err for kind in policies.POLICY_KINDS)


class TestAllocateGolden:
    @pytest.mark.parametrize("case", list(ALLOCATE_GOLDEN), ids=[
        "bubar-budget", "bubar-alpha0", "covid-budget", "age-budget"])
    def test_allocation_matches_pinned_values(self, tmp_path, case):
        model_name, *flags = case
        assert allocate(tmp_path, "--model", model_name, *flags) == cli.EXIT_OK
        doc = json.loads((tmp_path / "allocation.json").read_text())
        alpha, doses, dose_vector, solver = ALLOCATE_GOLDEN[case]
        assert doc["achieved_alpha"] == pytest.approx(alpha, rel=1e-9, abs=1e-15)
        assert doc["doses"] == pytest.approx(doses, rel=1e-9)
        assert doc["dose_vector"] == pytest.approx(
            dose_vector, rel=1e-9, abs=1e-9 * max(dose_vector))
        assert {key: doc["solver"][key] for key in solver} == solver

    @pytest.mark.parametrize("flags", [("--budget", "0.05"), ("--alpha", "0")],
                             ids=["budget", "alpha0"])
    def test_bubar_allocation_recertifies(self, tmp_path, flags):
        assert allocate(tmp_path, "--model", "bubar", *flags) == cli.EXIT_OK
        doc = json.loads((tmp_path / "allocation.json").read_text())
        params, state = bubar.us_like_instance(1.15, seed=0)
        v = np.asarray(doc["v"])
        cert = bubar.bubar_certificate(state, params, v, doc["achieved_alpha"])
        assert cert.satisfied
        doses = float((v * (state.S + state.I + state.R)).sum())
        assert doses == pytest.approx(doc["doses"], rel=1e-12)
        if flags[0] == "--budget":
            assert doses <= 0.05 * params.populations.sum() * (1 + 1e-9)


# summary.csv values of `compare` at horizon 30, seed 0, pinned before the
# policies were simulated as one batch; the covid optimal-stabilizing rows
# since max-decay searches directly when b1 is one scalar
COVID_COMPARE_30 = {
    "optimal-stabilizing": (91605.785554, 1610.875234, 15438.454726),
    "population-weighted": (94371.511385, 1643.851820, 15858.700000),
    "infection-weighted": (93976.162003, 1638.855297, 15858.700000),
    "no-vaccine": (101199.866735, 1724.401806, 0.0),
}
SEIR_COMPARE_30 = {
    "optimal-stabilizing": (10000.377637, 55.866196, 50000.0),
    "under-20": (10918.184019, 57.068341, 50000.0),
    "adults-20-49": (10052.728076, 55.906048, 50000.0),
    "adults-20-plus": (10318.453769, 54.784163, 50000.0),
    "seniors-60-plus": (10904.119927, 52.637394, 50000.0),
    "all-ages": (10461.864290, 55.344529, 50000.0),
}
# the policies of the benchmark's compare-age-n5 on the age-structured model,
# six-tier age-priority included, pinned before a day's policies were dosed
# in one batched pass
AGE_POLICIES = [{"kind": kind} for kind in (
    "optimal-stabilizing", "population-weighted", "infection-weighted",
    "no-vaccine")] + [{"kind": "age-priority",
                       "priority_groups": [5, 4, 3, 2, 1, 0]}]
AGE_COMPARE_30 = {
    "optimal-stabilizing": (85943.378058, 726.843656, 15503.164125),
    "population-weighted": (90080.075157, 728.109063, 15858.7),
    "infection-weighted": (89524.106790, 727.272944, 15858.7),
    "no-vaccine": (96348.884714, 753.884942, 0.0),
    "age-priority": (93805.993140, 674.645305, 15858.7),
}
SWEEP_BUDGET_30 = [
    ("0.01", "population-weighted", (99252.578189, 1698.270349, 3171.74)),
    ("0.01", "optimal-stabilizing", (98279.446508, 1685.428766, 3171.74)),
    ("0.05", "population-weighted", (94371.511385, 1643.851820, 15858.7)),
    ("0.05", "optimal-stabilizing", (91605.785554, 1610.875234, 15438.454726)),
]


def read_rows(path):
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


class TestCompareGolden:
    @pytest.mark.parametrize("model,golden", [("covid", COVID_COMPARE_30),
                                              ("bubar", SEIR_COMPARE_30)])
    def test_summary_matches_pinned_values(self, tmp_path, model, golden):
        assert cli.main(["--out", str(tmp_path), "--seed", "0", "--model",
                         model, "--horizon", "30", "compare"]) == cli.EXIT_OK
        rows = read_rows(tmp_path / "summary.csv")
        assert [row[0] for row in rows] == list(golden)
        for name, *values in rows:
            assert [float(x) for x in values] == pytest.approx(
                golden[name], rel=1e-9)

    def test_age_summary_matches_pinned_values(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"policies": AGE_POLICIES}))
        assert cli.main(["--config", str(config), "--out", str(tmp_path),
                         "--seed", "0", "--model", "covid-demographic",
                         "--horizon", "30", "compare"]) == cli.EXIT_OK
        rows = read_rows(tmp_path / "summary.csv")
        assert [row[0] for row in rows] == list(AGE_COMPARE_30)
        for name, *values in rows:
            assert [float(x) for x in values] == pytest.approx(
                AGE_COMPARE_30[name], rel=1e-9)

    def test_covid_writes_one_trajectory_per_policy(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "--seed", "0", "--horizon",
                         "30", "compare"]) == cli.EXIT_OK
        for name in COVID_COMPARE_30:
            lines = (tmp_path / f"trajectory_{name}.csv").read_text().splitlines()
            assert lines[0].startswith("t,cell,s,xa,xs,e,h")
            assert len(lines) == 1 + 31 * 5


class TestSweepGolden:
    def test_budget_sweep_rows(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "--seed", "0", "--horizon",
                         "30", "--axis", "budget", "--range", "0.01:0.05:2",
                         "--workers", "1", "--policy", "population-weighted",
                         "--policy", "optimal-stabilizing",
                         "sweep"]) == cli.EXIT_OK
        rows = read_rows(tmp_path / "sweep.csv")
        assert len(rows) == 2 * 2
        for row, (value, policy, golden) in zip(rows, SWEEP_BUDGET_30):
            assert row[:3] == ["budget", value, policy]
            assert [float(x) for x in row[3:]] == pytest.approx(golden,
                                                                rel=1e-9)

    @pytest.mark.parametrize("axis, grid, calibrations", [
        ("budget", "0.01:0.05:3", 1), ("interval", "1:7:3", 1),
        ("rt", "1.0:1.2:3", 3)])
    def test_instance_is_calibrated_once_unless_rt_moves(
            self, tmp_path, monkeypatch, axis, grid, calibrations):
        calls = []
        calibrate = ingest.calibrate_transmission
        monkeypatch.setattr(ingest, "calibrate_transmission",
                            lambda *args: calls.append(1) or calibrate(*args))
        assert cli.main(["--out", str(tmp_path), "--seed", "0", "--horizon",
                         "10", "--axis", axis, "--range", grid,
                         "--workers", "1", "--policy", "no-vaccine",
                         "sweep"]) == cli.EXIT_OK
        assert len(calls) == calibrations


class TestRepeatedPolicyNames:
    """Two policies of one name would write one trajectory file and two
    summary rows that cannot be told apart; the run exits 3 first."""

    AGE_PRIORITIES = [{"kind": "age-priority",
                       "priority_groups": [5, 4, 3, 2, 1, 0]},
                      {"kind": "age-priority",
                       "priority_groups": [0, 1, 2, 3, 4, 5]}]

    @pytest.mark.parametrize("config, flags", [
        ({"model": "covid-demographic", "synthetic": {"n": 3},
          "policies": AGE_PRIORITIES}, ("compare",)),
        ({}, ("--policy", "no-vaccine", "--policy", "no-vaccine", "compare")),
        ({}, ("--model", "bubar", "--policy", "under-20", "--policy",
              "all-ages", "--policy", "under-20", "compare")),
        ({}, ("--policy", "population-weighted", "--policy",
              "population-weighted", "--axis", "budget", "--range",
              "0.01:0.02:2", "--workers", "1", "sweep")),
    ], ids=["config-file", "policy-flags", "bubar", "sweep"])
    def test_repeated_name_exits_input_error(self, tmp_path, config, flags):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out),
                         "--horizon", "10", *flags]) == cli.EXIT_INPUT
        # nothing is written; sweep makes the directory before any point runs
        assert not out.exists() or not any(out.iterdir())

    def test_static_and_daily_optimal_names_differ(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"policies": [
            {"kind": "optimal-stabilizing"},
            {"kind": "optimal-stabilizing", "resolve_mode": "daily-resolve"}]}))
        assert cli.main(["--config", str(path), "--out", str(tmp_path),
                         "--horizon", "2", "compare"]) == cli.EXIT_OK
        assert [row[0] for row in read_rows(tmp_path / "summary.csv")] == [
            "optimal-stabilizing", "optimal-daily"]


class TestAgeBands:
    def test_covid_demographic_compares_two_bands(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "--seed", "0", "--model",
                         "covid-demographic", "--horizon", "10", "--policy",
                         "adults-20-49", "--policy", "seniors-60-plus",
                         "compare"]) == cli.EXIT_OK
        assert [row[0] for row in read_rows(tmp_path / "summary.csv")] == [
            "adults-20-49", "seniors-60-plus"]
        # 10 days at 0.33% a day leave the 5% budget unspent; cell
        # loc{i}:g{b} is age group b, and the NY groups 2-3 are ages 20-44,
        # group 5 ages 65-89
        for name, groups in (("adults-20-49", {"g2", "g3"}),
                             ("seniors-60-plus", {"g5"})):
            with open(tmp_path / f"trajectory_{name}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 11 * 5 * 6
            dosed = {row["cell"].split(":")[1] for row in rows
                     if float(row["doses"]) > 0}
            assert dosed == groups, name

    @staticmethod
    def seir_compare(tmp_path, monkeypatch, priority_groups):
        """Exit code of a bubar compare of one explicit age-priority list,
        and the trajectories the run simulated."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "bubar", "policies": [
            {"kind": "age-priority", "priority_groups": priority_groups}]}))
        trajs = []
        real = cli._simulate

        def spy(config):
            names, runs = real(config)
            trajs.extend(runs)
            return names, runs

        monkeypatch.setattr(cli, "_simulate", spy)
        code = cli.main(["--config", str(config), "--out", str(tmp_path / "out"),
                         "--seed", "0", "--horizon", "10", "compare"])
        return code, trajs

    def test_seir_explicit_age_priority(self, tmp_path, monkeypatch):
        code, (traj,) = self.seir_compare(tmp_path, monkeypatch, [6, 7, 8])
        assert code == cli.EXIT_OK
        assert [row[0] for row in read_rows(tmp_path / "out" / "summary.csv")] \
            == ["age-priority"]
        # the SEIR cells are the nine decades, and tiers fill in order: ten
        # days at 0.33% a day all go to 60-69, which holds more than that
        assert np.flatnonzero(traj.doses[-1]).tolist() == [6]
        assert traj.total_doses() == pytest.approx(0.033 * 1e6, rel=1e-12)

    def test_seir_priority_group_outside_the_decades_exits_input_error(
            self, tmp_path, monkeypatch):
        code, trajs = self.seir_compare(tmp_path, monkeypatch, [9])
        assert code == cli.EXIT_INPUT and not trajs


class TestStep:
    def test_bubar_honours_step(self, tmp_path):
        argv = ["--seed", "0", "--model", "bubar", "--horizon", "30"]
        assert cli.main(["--out", str(tmp_path / "half"), *argv, "--step",
                         "0.5", "compare"]) == cli.EXIT_OK
        assert cli.main(["--out", str(tmp_path / "default"), *argv,
                         "compare"]) == cli.EXIT_OK
        params, state0 = bubar.us_like_instance(1.15, seed=0)
        names = ["optimal-stabilizing", *policies.AGE_BANDS]
        trajs = dynamics.simulate(
            bubar.bubar_model(params, state0),
            [policies.PolicySpec(name) for name in names], cli._schedule({}),
            30, step=0.5)
        cli._write_summary(tmp_path / "library.csv",
                           cli._summary_rows(names, trajs))
        half = (tmp_path / "half" / "summary.csv").read_text()
        assert half == (tmp_path / "library.csv").read_text()
        assert half != (tmp_path / "default" / "summary.csv").read_text()

    @pytest.mark.parametrize("step", ["0.3", "-1"])
    def test_step_not_dividing_a_day_exits_input_error(self, tmp_path, step):
        # rejected with the configuration, before the output directory exists
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "--seed", "0", "--horizon", "5",
                         "--step", step, "compare"]) == cli.EXIT_INPUT
        assert not out.exists()

    def test_step_that_is_no_number_exits_input_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"step": [0.25]}))
        assert cli.main(["--config", str(config), "--out", str(tmp_path),
                         "compare"]) == cli.EXIT_INPUT


SWEEP_POLICY_FLAGS = {
    "covid": ("--policy", "population-weighted", "--policy",
              "optimal-stabilizing"),
    "bubar": ("--policy", "seniors-60-plus", "--policy",
              "optimal-stabilizing"),
}


def compare_at(out, config):
    """summary.csv rows of `compare` at horizon 30 under config."""
    out.mkdir(parents=True)
    path = out / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--config", str(path), "--out", str(out), "--horizon",
                     "30", *SWEEP_POLICY_FLAGS[config.get("model", "covid")],
                     "compare"]) == cli.EXIT_OK
    return read_rows(out / "summary.csv")


def sweep_rows(out, axis, values, *flags, model="covid"):
    """sweep.csv rows at horizon 30 over the grid lo:hi:steps of values."""
    assert cli.main(["--out", str(out), "--horizon", "30", "--axis", axis,
                     "--range", f"{values[0]}:{values[-1]}:{len(values)}",
                     "--model", model, *SWEEP_POLICY_FLAGS[model], *flags,
                     "sweep"]) == cli.EXIT_OK
    return read_rows(out / "sweep.csv")


# the config of one sweep point, for `compare`
POINT_CONFIG = {
    "budget": lambda value: {"budget": value},
    "rt": lambda value: {"target_rt": value},
    "interval": lambda value: {
        "schedule": {"interval_days": int(round(value))}},
}


def oracle_rows(tmp_path, axis, values, model="covid"):
    """The sweep.csv rows that `compare` on the model's seed-0 instance
    gives at each point of the axis."""
    rows = []
    for k, value in enumerate(values):
        rows += [[axis, f"{value:.6g}", *row] for row in compare_at(
            tmp_path / f"compare{k}",
            {"seed": 0, "model": model, **POINT_CONFIG[axis](value)})]
    return rows


class TestSweepOracle:
    @pytest.mark.parametrize("axis, lo, hi, workers", [
        ("budget", 0.01, 0.05, 1), ("rt", 1.0, 2.0, 1),
        ("interval", 1.0, 7.0, 1), ("budget", 0.01, 0.05, 2)])
    def test_rows_match_compare(self, tmp_path, axis, lo, hi, workers):
        values = np.linspace(lo, hi, 2)
        rows = sweep_rows(tmp_path / "sweep", axis, values, "--seed", "0",
                          "--workers", str(workers))
        assert rows == oracle_rows(tmp_path, axis, values)

    def test_instance_file_follows_target_rt(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "--seed", "0",
                         "calibrate"]) == cli.EXIT_OK
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"instance": str(tmp_path / "instance.json")}))
        values = np.linspace(1.0, 2.0, 2)
        rows = sweep_rows(tmp_path / "sweep", "rt", values, "--config",
                          str(config), "--workers", "1")
        assert rows == oracle_rows(tmp_path, "rt", values)

    @pytest.mark.parametrize("axis, lo, hi", [("budget", 0.01, 0.05),
                                              ("rt", 1.05, 2.5)],
                             ids=["budget", "rt"])
    def test_bubar_rows_match_compare(self, tmp_path, axis, lo, hi):
        values = np.linspace(lo, hi, 2)
        rows = sweep_rows(tmp_path / "sweep", axis, values, "--seed", "0",
                          "--workers", "1", model="bubar")
        assert rows == oracle_rows(tmp_path, axis, values, model="bubar")


def compare_summary(out, *flags, config=None):
    """summary.csv text of a SEIR `compare` at horizon 30, seed 0."""
    argv = ["--out", str(out), "--seed", "0", "--model", "bubar",
            "--horizon", "30", *flags, "compare"]
    if config is not None:
        out.mkdir(parents=True)
        (out / "config.json").write_text(json.dumps(config))
        argv = ["--config", str(out / "config.json"), *argv]
    assert cli.main(argv) == cli.EXIT_OK
    return (out / "summary.csv").read_text()


class TestSharedKeys:
    """The SEIR model reads the covid models' keys: target_rt is its R0,
    psi its efficacy, and policies name its dosing policies."""

    @pytest.mark.parametrize("flags, config, r0, psi, names", [
        (("--target-rt", "1.5"), None, 1.5, 0.9, None),
        ((), {"psi": 0.5}, 1.15, 0.5, None),
        (("--policy", "under-20", "--policy", "no-vaccine"), None, 1.15, 0.9,
         ["under-20", "no-vaccine"])], ids=["target-rt", "psi", "policy"])
    def test_bubar_reads_shared_key(self, tmp_path, flags, config, r0, psi,
                                    names):
        summary = compare_summary(tmp_path / "cli", *flags, config=config)
        params, state0 = bubar.us_like_instance(r0, seed=0, psi=psi)
        names = names or ["optimal-stabilizing", *policies.AGE_BANDS]
        trajs = dynamics.simulate(
            bubar.bubar_model(params, state0),
            [policies.PolicySpec(name) for name in names], cli._schedule({}),
            30)
        cli._write_summary(tmp_path / "library.csv",
                           cli._summary_rows(names, trajs))
        assert summary == (tmp_path / "library.csv").read_text()
        assert summary != compare_summary(tmp_path / "default")


class TestConfigKeys:
    @pytest.mark.parametrize("config, flags", [
        ({"horizion": 30}, ()),
        ({"polices": [{"kind": "no-vaccine"}]}, ()),
        ({"schedule": {"daily-rate": 0.01}}, ()),
        ({"policies": [{"kind": "no-vaccine", "resolve": "static"}]}, ()),
        ({"model": "seir"}, ()),
        ({"n": 5}, ()),
        ({"synthetic": {"target_rt": 1.3}}, ()),
        ({"target_r0": 1.5}, ("--model", "bubar")),
        ({"bubar_policies": ["under-20"]}, ("--model", "bubar")),
        ({"synthetic": {"seed": 1}}, ("--model", "bubar")),
        ({"instance": "instance.json"}, ("--model", "bubar")),
        ({"files": {}}, ("--model", "bubar")),
        ({"alpha_hat": 0.5}, ("--model", "bubar")),
        ({"policies": [{"kind": "under-20", "resolve_mode": "static"}]},
         ("--model", "bubar")),
        ({}, ("--model", "bubar", "--policy", "under20")),
        ({"psi": 1.5}, ("--model", "bubar")),
        ({}, ("--model", "bubar", "--target-rt", "-1")),
        ({}, ("--target-rt", "-1")),
        ({"model": "covid-demographic", "synthetic": {"n": 3}, "policies": [
            {"kind": "age-priority", "priority_groups": [2, [1, 2]]}]}, ()),
        # the six age groups are 0-5: group 7 used to dose cell 7, which is
        # group 1 of location 1, and -1 dosed cell 11 twice
        ({"model": "covid-demographic", "synthetic": {"n": 3}, "policies": [
            {"kind": "age-priority", "priority_groups": [7]}]}, ()),
        ({"model": "covid-demographic", "synthetic": {"n": 3}, "policies": [
            {"kind": "age-priority", "priority_groups": [-1]}]}, ()),
        # fields a kind never reads used to be ignored without a word
        ({"model": "covid-demographic", "synthetic": {"n": 3}, "policies": [
            {"kind": "population-weighted", "priority_groups": [7]}]}, ()),
        ({"model": "covid-demographic", "synthetic": {"n": 3}, "policies": [
            {"kind": "no-vaccine", "resolve_mode": "daily-resolve"}]}, ()),
        # the homogeneous model has no age groups
        ({}, ("--policy", "under-20")),
    ], ids=["horizion", "polices", "schedule-daily-rate", "policy-resolve",
            "model-seir", "top-level-n", "synthetic-target-rt", "target-r0",
            "bubar-policies", "bubar-synthetic", "bubar-instance",
            "bubar-files", "bubar-alpha-hat", "bubar-resolve-mode",
            "bubar-under20", "bubar-psi-1.5", "bubar-r0-negative",
            "covid-rt-negative", "priority-group-twice", "priority-group-7",
            "priority-group-negative", "unread-priority-groups",
            "unread-resolve-mode", "covid-age-band"])
    def test_rejected_config_exits_input_error(self, tmp_path, config,
                                               flags):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out),
                         "--horizon", "5", *flags, "compare"]) == cli.EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--model", "bubar", "calibrate"),
        ("--alpha", "0", "--budget", "0.05", "allocate"),
        ("--model", "bubar", "--alpha", "0", "--budget", "0.05", "allocate")],
        ids=["bubar-calibrate", "alpha-and-budget", "bubar-alpha-and-budget"])
    def test_rejected_command_exits_input_error(self, tmp_path, flags):
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), *flags]) == cli.EXIT_INPUT
        assert not out.exists()

    def test_null_counts_as_absent(self, tmp_path):
        summary = compare_summary(tmp_path / "null", config={
            "policies": None, "schedule": None, "psi": None})
        assert summary == compare_summary(tmp_path / "default")


@pytest.fixture
def sources(tmp_path):
    """Configs of a saved instance and of three input files."""
    assert cli.main(["--out", str(tmp_path), "--seed", "0",
                     "calibrate"]) == cli.EXIT_OK
    (tmp_path / "trips.csv").write_text(
        "origin_id,dest_id,daily_trips\na,a,8000\na,b,200\nb,a,200\nb,b,8000\n")
    (tmp_path / "dwell.csv").write_text(
        "location_id,median_dwell_minutes\na,800\nb,800\n")
    (tmp_path / "cases.csv").write_text(
        "location_id,cum_confirmed,cum_deaths,population\n"
        "a,217,5,10000\nb,100,2,8000\n")
    files = {name: str(tmp_path / f"{name}.csv")
             for name in ("trips", "dwell", "cases")}
    return {"instance": {"instance": str(tmp_path / "instance.json")},
            "files": {"files": files}}


def test_calibrate_zero_symptomatic_outflow_exits_input_error(
        tmp_path, sources, capsys):
    path = sources["instance"]["instance"]
    with open(path) as fh:
        doc = json.load(fh)
    doc["params"].update(r_s=0.0, kappa=0.0)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"instance": path, "target_rt": 1.2}))
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "out"),
                     "calibrate"]) == cli.EXIT_INPUT
    assert "r_s + kappa is 0" in capsys.readouterr().err


def test_calibrate_zero_asymptomatic_outflow_exits_input_error(
        tmp_path, sources, capsys):
    path = sources["instance"]["instance"]
    with open(path) as fh:
        doc = json.load(fh)
    doc["params"].update(eps=0.0, r_a=0.0)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"instance": path, "target_rt": 1.2}))
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "out"),
                     "calibrate"]) == cli.EXIT_INPUT
    assert "eps + r_a is 0" in capsys.readouterr().err


class TestSourceKeys:
    """A config key that its instance source never reads exits 3."""

    def compare(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = cli.main(["--config", str(path), "--out", str(out),
                         "--horizon", "5", "compare"])
        return code, out.exists()

    @pytest.mark.parametrize("source", ["instance", "files"])
    def test_source_alone_runs(self, tmp_path, sources, source):
        assert self.compare(tmp_path, sources[source]) == (cli.EXIT_OK, True)

    @pytest.mark.parametrize("source, extra", [
        ("instance", {"psi": 0.5}), ("instance", {"seed": 3}),
        ("instance", {"alpha_hat": 0.9}), ("instance", {"synthetic": {}}),
        ("files", {"seed": 3}), ("files", {"synthetic": {"n": 5}}),
        ("instance", "files")],
        ids=["instance-psi", "instance-seed", "instance-alpha-hat",
             "instance-synthetic", "files-seed", "files-synthetic",
             "instance-and-files"])
    def test_ignored_key_exits_input_error(self, tmp_path, sources, source,
                                           extra):
        extra = sources[extra] if isinstance(extra, str) else extra
        assert self.compare(tmp_path, {**sources[source], **extra}) == (
            cli.EXIT_INPUT, False)


class TestAtomicWrite:
    def test_outputs_take_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            for command in ("calibrate", "allocate", "compare", "sweep"):
                assert cli.main([
                    "--out", str(tmp_path), "--seed", "0", "--horizon", "5",
                    "--policy", "no-vaccine", "--axis", "budget", "--range",
                    "0.01:0.02:2", "--workers", "1", command]) == cli.EXIT_OK
        finally:
            os.umask(old)
        names = {p.name for p in tmp_path.iterdir()}
        assert {"instance.json", "allocation.json", "allocation.csv",
                "summary.csv", "sweep.csv", "trajectory_no-vaccine.csv"} <= names
        for path in tmp_path.iterdir():
            assert stat.S_IMODE(path.stat().st_mode) == 0o640, path.name
        # csv.writer's rows, as a plain open with newline="" wrote them
        assert (tmp_path / "allocation.csv").read_bytes().startswith(
            b"cell,v,doses\r\n")

    def test_failed_allocation_csv_leaves_old_file(self, tmp_path,
                                                   monkeypatch):
        target = tmp_path / "allocation.csv"
        target.write_text("old\n")
        real = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == target.name:
                raise OSError("no space left on device")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="no space"):
            allocate(tmp_path, "--budget", "0.05")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "allocation.csv", "allocation.json"]
        assert target.read_text() == "old\n"

    def test_failed_write_leaves_target_and_no_temporary(self, tmp_path):
        target = tmp_path / "summary.csv"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            cli._write_atomic(target, "\ud800")
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]
        assert target.read_text() == "old\n"


class TestMeaninglessNumbers:
    """A negative horizon or worker count, a fraction for an int key, a
    number that is not finite, or a sweep range of no points or that is no
    flat list of numbers, exits 3 naming its key, from a flag or a config
    file alike; nothing is written."""

    SWEEP = ("--axis", "budget", "--horizon", "3", "sweep")

    @pytest.mark.parametrize("key, value, command", [
        ("horizon", -1, ("compare",)),
        ("horizon", -3, ("compare",)),
        ("workers", -2, ("--range", "0.01:0.02:2", *SWEEP)),
        ("range", "0.01:0.02:0", SWEEP),
        # a TypeError traceback, exit 1
        ("range", [[0.01, 0.02]], SWEEP),
        ("range", [[0.01]], SWEEP),
        ("range", [True], SWEEP),  # ran as budget 1.0
        ("range", [0.01, "0.02"], SWEEP),
        ("range", [0.01, float("nan")], SWEEP),
        # these reached the solvers: exit 4, "the LP is infeasible"
        ("budget", "nan", ("allocate",)),
        ("budget", float("inf"), ("allocate",)),
        # numpy's "Eigenvalues did not converge"
        ("target_rt", float("nan"), ("allocate",)),
        # "Array must not contain infs or NaNs"
        ("alpha", float("nan"), ("--model", "bubar", "allocate")),
        # a config file truncated these and ran 3 days; a flag exited 2
        ("horizon", 3.7, ("compare",)),
        ("seed", 0.5, ("compare",)),
    ], ids=["horizon-1", "horizon-3", "workers-2", "range-no-points",
            "range-nested", "range-nested-one", "range-bool",
            "range-string-entry", "range-nan", "budget-nan", "budget-inf",
            "target-rt-nan", "seir-alpha-nan", "horizon-fraction",
            "seed-fraction"])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_exits_input_error(self, tmp_path, capsys, key, value, command,
                               form):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value} if form == "config" else {}))
        flags = ((f"--{key.replace('_', '-')}", str(value)) if form == "flag"
                 else ())
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), *flags,
                         *command]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {key} must")
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("synthetic", "n", 2.9), ("schedule", "interval_days", 1.5)])
    def test_fraction_for_a_section_int_exits_input_error(
            self, tmp_path, capsys, section, key, value):
        # keys of no flag; n = 2.9 ran on 2 locations
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text(json.dumps({section: {key: value}}))
        assert cli.main(["--config", str(path), "--out", str(out),
                         "--horizon", "3", "compare"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"input error: {section}.{key} must be an integer")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["seed", "horizon", "budget"])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_text_of_no_number_exits_input_error(self, tmp_path, capsys, key,
                                                 form):
        # a flag exited 2, argparse's usage error
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text(json.dumps({key: "abc"} if form == "config" else {}))
        flags = (f"--{key}", "abc") if form == "flag" else ()
        assert cli.main(["--config", str(path), "--out", str(out), *flags,
                         "compare"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"input error: config key {key}:")
        assert not out.exists()

    def test_whole_numbers_read_alike(self, tmp_path):
        # ints and whole floats, in a file or as flag text, give the same
        # files byte for byte
        ints = {"horizon": 3, "seed": 1, "workers": 1,
                "synthetic": {"n": 2}, "schedule": {"interval_days": 2}}
        floats = {"horizon": 3.0, "seed": 1.0, "workers": 1.0,
                  "synthetic": {"n": 2.0}, "schedule": {"interval_days": 2.0}}
        nested = {key: ints[key] for key in ("synthetic", "schedule")}
        runs = {"ints": (ints, []), "floats": (floats, []),
                "int-flags": (nested, ["--horizon", "3", "--seed", "1",
                                       "--workers", "1"]),
                "float-flags": (nested, ["--horizon", "3.0", "--seed", "1e0",
                                         "--workers", "1.0"])}
        outputs = {}
        for name, (config, flags) in runs.items():
            path, out = tmp_path / f"{name}.json", tmp_path / name
            path.write_text(json.dumps(config))
            assert cli.main(["--config", str(path), "--out", str(out), *flags,
                             "compare"]) == cli.EXIT_OK
            outputs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(outputs["ints"]) == 5
        assert len(read_rows(tmp_path / "ints" / "trajectory_no-vaccine.csv")
                   ) == 4 * 2
        for name in runs:
            assert outputs[name] == outputs["ints"], name

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_zero_horizon_and_workers_stay_valid(self, tmp_path, form):
        values = {"horizon": 0, "workers": 0, "range": "0.01:0.01:1"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(values if form == "config" else {}))
        flags = [item for key, value in values.items()
                 for item in (f"--{key}", str(value))] if form == "flag" else []
        for command in ("compare", "sweep"):
            assert cli.main(["--config", str(path), "--out", str(tmp_path),
                             "--axis", "budget", "--policy", "no-vaccine",
                             *flags, command]) == cli.EXIT_OK
        assert len(read_rows(tmp_path / "sweep.csv")) == 1
        # day 0 alone
        assert {row[0] for row in read_rows(
            tmp_path / "trajectory_no-vaccine.csv")} == {"0"}


class TestScheduleChecks:
    """A schedule that `VaccinationSchedule` refuses, and a sweep without an
    axis, exit 3 with the check's own message; nothing is written."""

    @pytest.mark.parametrize("config, message", [
        ({"budget": 1.5}, "budget must be a fraction of the population"),
        ({"schedule": {"daily_rate": -0.001}}, "daily rate must be nonnegative"),
        ({"schedule": {"interval_days": 0}},
         "supply interval must be at least one day"),
        ({"schedule": {"leftover_rule": "bogus"}},
         "leftover rule must be 'even-split' or 'none'"),
    ], ids=["budget-above-one", "daily-rate-negative", "interval-zero",
            "leftover-rule-unknown"])
    def test_schedule_out_of_range_exits_input_error(self, tmp_path, capsys,
                                                     config, message):
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text(json.dumps(config))
        assert cli.main(["--config", str(path), "--out", str(out),
                         "--horizon", "3", "compare"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not out.exists()

    def test_sweep_without_axis_exits_input_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "--horizon", "3", "--range",
                         "0.01:0.02:2", "sweep"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == \
            "input error: sweep needs --axis budget|rt|interval\n"
        assert not out.exists()


class TestConfigTypes:
    """A config value of the wrong type exits 3 with a message naming its
    key, not with a traceback or a run on a value it misreads."""

    AGE = {"model": "covid-demographic", "synthetic": {"n": 3}}

    @pytest.mark.parametrize("config, key", [
        ({"out": 5}, "out"),
        ({"instance": 7}, "instance"),
        # 0 used to open file descriptor 0 (stdin) as the trips file
        ({"files": {"trips": 0, "dwell": 0, "cases": 0}}, "files.trips"),
        ({"policies": [{"kind": "age-priority", "priority_groups": 5}]},
         "policies.priority_groups"),
        # 1.5 used to dose group 1
        ({**AGE, "policies": [{"kind": "age-priority",
                               "priority_groups": [1.5, 0]}]},
         "priority_groups"),
        ({**AGE, "policies": [{"kind": "age-priority",
                               "priority_groups": [[0, True]]}]},
         "priority_groups"),
        ({"policies": {"kind": "no-vaccine"}}, "policies"),
        # numpy's "need at least one array to concatenate"
        ({**AGE, "policies": [{"kind": "age-priority",
                               "priority_groups": [[]]}]},
         "priority_groups"),
        ({**AGE, "policies": [{"kind": "age-priority",
                               "priority_groups": [4, [], 5]}]},
         "priority_groups"),
        ({"seed": float("inf")}, "seed"),  # int() overflows
        ({"schedule": {"daily_rate": float("nan")}}, "schedule.daily_rate"),
        ({"synthetic": {"n": float("-inf")}}, "synthetic.n"),
    ], ids=["out-number", "instance-number", "files-numbers",
            "priority-groups-number", "priority-group-float",
            "priority-group-bool", "policies-object", "priority-tier-empty",
            "priority-tier-empty-between", "seed-inf", "daily-rate-nan",
            "synthetic-n-minus-inf"])
    def test_wrong_type_exits_input_error(self, tmp_path, monkeypatch, capsys,
                                          config, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert cli.main(["--config", "config.json", "--horizon", "5",
                         "compare"]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error:") and key in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("groups", [(1.5, 0), (True,), ((0, 1.0),),
                                        ("0",), ((),), (0, [])])
    def test_policy_spec_rejects_entries_that_are_no_ints(self, groups):
        with pytest.raises(ValueError, match="priority_groups"):
            policies.PolicySpec("age-priority", priority_groups=groups)


class TestInstanceFile:
    """A malformed instance file exits 3, not with a traceback."""

    @pytest.mark.parametrize("edit", [
        lambda doc: [doc],
        lambda doc: {**doc, "state0": "s"},
        lambda doc: {**doc, "params": {**doc["params"], "beta_x": 1.0}},
        lambda doc: {**doc, "network": {"tau": doc["network"]["tau"]}},
    ], ids=["top-level-list", "section-string", "unknown-key",
            "missing-key"])
    def test_malformed_file_exits_input_error(self, tmp_path, sources, capsys,
                                              edit):
        path = sources["instance"]["instance"]
        with open(path) as fh:
            doc = json.load(fh)
        with open(path, "w") as fh:
            json.dump(edit(doc), fh)
        config, out = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps({"instance": path}))
        assert cli.main(["--config", str(config), "--out", str(out),
                         "--budget", "0.05", "allocate"]) == cli.EXIT_INPUT
        assert "instance file" in capsys.readouterr().err
        assert not (out / "allocation.json").exists()

    @pytest.mark.parametrize("model_name, edit, where", [
        ("covid", lambda doc: {**doc, "state0": {
            name: values[:2] for name, values in doc["state0"].items()}},
         "section state0: s has shape (2,)"),
        ("covid", lambda doc: {**doc, "contacts": {
            "contacts": [[1.0]], "reference_pop": [1.0]}},
         "section contacts has no effect with homogeneous params"),
        ("covid-demographic", lambda doc: {**doc, "params": {
            **doc["params"], "r_s": doc["params"]["r_s"][:5]}},
         "section params: r_s has shape (5,)"),
        ("covid-demographic", lambda doc: {**doc, "params": {
            **doc["params"], "kappa": doc["params"]["kappa"] + [0.0]}},
         "section params: kappa has shape (7,)"),
        ("covid-demographic", lambda doc: {**doc, "params": {
            **doc["params"], "beta0": doc["params"]["beta0"][:1]}},
         "section params: beta0 has shape (1,)"),
        ("covid-demographic", lambda doc: {**doc, "contacts": {
            "contacts": [[1.0]], "reference_pop": [1.0]}},
         "section contacts: contacts has shape (1, 1)"),
        # compare ended in a FloatingPointError traceback, exit 1, and
        # allocate in numpy's "Eigenvalues did not converge"
        ("covid", lambda doc: {**doc, "state0": {
            **doc["state0"], "s": [float("nan"), *doc["state0"]["s"][1:]]}},
         "section state0: s must be finite"),
        # both ran, exit 0; allocate printed satisfied=True
        ("covid", lambda doc: {**doc, "state0": {
            **doc["state0"], "s": [1.7, *doc["state0"]["s"][1:]]}},
         "section state0: s fractions must lie in [0, 1]"),
        ("covid", lambda doc: {**doc, "params": {
            **doc["params"], "eps": float("nan")}},
         "section params: eps must be finite"),
        ("covid", lambda doc: {**doc, "network": {
            **doc["network"], "tau": [[float("inf"), *doc["network"]["tau"][0][
                1:]], *doc["network"]["tau"][1:]]}},
         "section network: tau must be finite"),
        # numpy's bare "inhomogeneous shape" ValueError named no section
        ("covid", lambda doc: {**doc, "network": {
            **doc["network"], "tau": [doc["network"]["tau"][0][:-2],
                                      *doc["network"]["tau"][1:]]}},
         "section network: tau is not a regular array"),
        # compare ran, exit 0, with susceptibles rising; allocate said "b1
        # must be positive (no transmission path?)"
        ("covid", lambda doc: {**doc, "params": {
            **doc["params"], "beta_s": -doc["params"]["beta_s"],
            "beta_a": -doc["params"]["beta_a"]}},
         "section params: beta_s must be nonnegative"),
        ("covid-demographic", lambda doc: {**doc, "params": {
            **doc["params"], "beta": -doc["params"]["beta"]}},
         "section params: beta must be nonnegative"),
        ("covid-demographic", lambda doc: {**doc, "params": {
            **doc["params"], "beta0": [-doc["params"]["beta0"][0],
                                       *doc["params"]["beta0"][1:]]}},
         "section params: beta0 must be nonnegative"),
    ], ids=["state0-length", "contacts-homogeneous", "r_s-groups",
            "kappa-groups", "beta0-groups", "contacts-groups", "state0-nan",
            "state0-above-one", "params-nan", "network-infinity",
            "network-ragged", "beta-negated", "age-beta-negative",
            "age-beta0-negative"])
    def test_records_that_disagree_exit_input_error(self, tmp_path, capsys,
                                                   model_name, edit, where):
        assert cli.main(["--out", str(tmp_path), "--seed", "0", "--model",
                         model_name, "calibrate"]) == cli.EXIT_OK
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        capsys.readouterr()
        config, out = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps({"instance": str(path)}))
        for command in ("allocate", "compare"):
            assert cli.main(["--config", str(config), "--out", str(out),
                             "--budget", "0.05", "--horizon", "5",
                             command]) == cli.EXIT_INPUT
            assert f"input error: instance file {where}" in \
                capsys.readouterr().err
        assert not out.exists()
