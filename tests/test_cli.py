import json

import numpy as np
import pytest

import stabvax as sv
from stabvax import cli, model


def allocate(tmp_path, *flags):
    return cli.main(["--out", str(tmp_path), "--seed", "0", *flags, "allocate"])


class TestAllocate:
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

    def test_malformed_config_exits_input_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert cli.main(["--config", str(config), "--out", str(tmp_path),
                         "allocate"]) == cli.EXIT_INPUT

    def test_uncertified_allocation_exits_solver_failure(self, tmp_path,
                                                         nudged_gram_route):
        assert allocate(tmp_path, "--alpha", "0") == cli.EXIT_SOLVER
        assert not (tmp_path / "allocation.json").exists()
