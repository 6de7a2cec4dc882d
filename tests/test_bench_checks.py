"""The benchmark's checks pass on the CLI's outputs. bench/checks.py builds
each operation's instance and reads the package's records at run time
(`EpidemicInstance.cell_populations`, `NetworkInstance.total_population`,
the certificates), which the static name scan of test_bench_names.py does
not see. The benchmark's files are imported as they are."""

import importlib
import json
from pathlib import Path

import pytest

from stabvax import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """bench/checks.py and bench/workloads.py, imported from bench/ as the
    benchmark's runner imports them."""
    monkeypatch.syspath_prepend(str(BENCH))
    return (importlib.import_module("checks"),
            importlib.import_module("workloads"))


@pytest.mark.parametrize("label", ["budget-covid-n5", "budget-age-n5",
                                   "budget-seir", "alpha0-seir"])
def test_alloc_mix_outputs_pass_the_checks(tmp_path, bench, label):
    checks, workloads = bench
    op, = [op for op in workloads.WORKLOADS["alloc-mix"].ops
           if op.label == label]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(op.config(0, str(tmp_path))))
    assert cli.main(op.argv(str(config))) == cli.EXIT_OK
    problems, figures = checks.check(
        op, checks.build_instance(op.model, op.n, 0), tmp_path)
    assert problems == []
    assert figures["doses"] > 0 and figures["rho"] <= 1.0 + 1e-9
