"""The CLI runs on numpy alone: importing it, building instances and running
any command, the solving ones and a forked sweep among them, load no scipy
module, and the CSV formatter's tables (`stabvax._text`) load only with the
first file written. Each entry point loads only the package modules it needs:
importing the CLI and building instances (the benchmark's set-up) loads no
solver, simulator or policy module, `calibrate` loads nothing more, and
`allocate` only the solvers. Each case runs in a fresh interpreter, since this test process has
scipy and every package module loaded already."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HEAVY = ("scipy",)


def run_fresh(code: str, tmp_path) -> dict:
    """Run code in a fresh interpreter; it leaves its findings in `report`,
    returned with the heavy modules it loaded under "loaded". Its `package()`
    names the package modules loaded so far."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    probe = textwrap.dedent("""
        import sys
        def package():
            return sorted(m.split(".", 1)[1] for m in sys.modules
                          if m.startswith("stabvax."))
        """) + textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys
        report["loaded"] = sorted(m for m in sys.modules for h in {HEAVY!r}
                                  if m == h or m.startswith(h + "."))
        print(json.dumps(report))
        """)
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_commands_that_never_solve_load_no_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"policies": [{"kind": "population-weighted"},
                                               {"kind": "no-vaccine"}]}))
    report = run_fresh(f"""
        import contextlib, io, sys
        import stabvax.cli as cli
        from stabvax import bubar, ingest
        ingest.synthetic_instance(0, n=5)
        ingest.synthetic_instance(0, n=5, groups=True)
        bubar.us_like_instance(1.15, seed=0)
        report = {{"formatter at start": "stabvax._text" in sys.modules}}
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            report["covid"] = cli.main(["--config", {str(config)!r},
                                        "--out", "covid", "--horizon", "20",
                                        "compare"])
            report["seir"] = cli.main(["--model", "bubar", "--out", "seir",
                                       "--horizon", "20", "compare"])
            report["calibrate"] = cli.main(["--out", "cal", "calibrate"])
            report["calibrate age"] = cli.main(["--model", "covid-demographic",
                                                "--out", "cal-age", "calibrate"])
            report["bad config"] = cli.main(["--config", "missing.json",
                                             "compare"])
        report["formatter at end"] = "stabvax._text" in sys.modules
        """, tmp_path)
    assert report.pop("loaded") == []
    assert report == {"covid": 0, "seir": 0, "calibrate": 0,
                      "calibrate age": 0, "bad config": 3,
                      "formatter at start": False, "formatter at end": True}
    assert (tmp_path / "covid" / "summary.csv").is_file()
    assert (tmp_path / "seir" / "summary.csv").is_file()


def test_solving_commands_load_no_scipy(tmp_path):
    report = run_fresh("""
        import contextlib, io, sys
        sys.modules["scipy"] = None  # any scipy import fails, in workers too
        import stabvax.cli as cli
        report = {}
        optimal = ["--policy", "optimal-stabilizing", "--horizon", "20"]
        with contextlib.redirect_stdout(io.StringIO()):
            report["allocate"] = cli.main(["--out", "alloc", "--budget", "0.05",
                                           "allocate"])
            report["covid"] = cli.main(["--out", "covid", *optimal, "compare"])
            report["seir"] = cli.main(["--model", "bubar", "--out", "seir",
                                       *optimal, "compare"])
            report["sweep"] = cli.main(["--out", "sweep", *optimal, "--axis",
                                        "budget", "--range", "0.01:0.05:2",
                                        "--workers", "2", "sweep"])
        del sys.modules["scipy"]
        """, tmp_path)
    assert report.pop("loaded") == []
    assert report == {"allocate": 0, "covid": 0, "seir": 0, "sweep": 0}
    doc = json.loads((tmp_path / "alloc" / "allocation.json").read_text())
    assert doc["certificate"]["satisfied"]
    assert len((tmp_path / "sweep" / "sweep.csv").read_text().splitlines()) == 3


SET_UP = ["bubar", "cli", "ingest", "model"]


def test_set_up_loads_no_solver_simulator_or_policies(tmp_path):
    # the steps of the benchmark's set-up probe (bench/run.py), on every
    # workload's instances
    report = run_fresh(f"""
        sys.path.insert(0, {str(ROOT / "bench")!r})
        import stabvax.cli
        from checks import build_instance
        from workloads import WORKLOADS
        report = {{"import": package()}}
        for workload in WORKLOADS.values():
            for iseed in workload.instance_seeds(0):
                for model, n in workload.instances:
                    build_instance(model, n, iseed)
        report["instances"] = package()
        """, tmp_path)
    assert report == {"loaded": [], "import": SET_UP, "instances": SET_UP}


@pytest.mark.parametrize("argv, loads", [
    (["calibrate"], []),
    (["--model", "covid-demographic", "calibrate"], []),
    (["--budget", "0.05", "allocate"], ["_lp", "allocator"]),
    (["--model", "bubar", "--alpha", "0", "allocate"], ["_lp", "allocator"]),
], ids=["calibrate", "calibrate-age", "allocate", "allocate-seir"])
def test_commands_load_no_simulator(tmp_path, argv, loads):
    # only allocate solves, and neither command loads the policy layer
    report = run_fresh(f"""
        import contextlib, io
        import stabvax.cli as cli
        with contextlib.redirect_stdout(io.StringIO()):
            report = {{"rc": cli.main(["--out", "out", *{argv!r}])}}
        report["modules"] = package()
        """, tmp_path)
    assert report == {"loaded": [], "rc": 0,
                      "modules": sorted(SET_UP + loads)}


def test_every_export_resolves_from_its_module(tmp_path):
    report = run_fresh("""
        import stabvax
        report = {"import": package(), "wrong": []}
        for name in stabvax.__all__:
            scope = {}
            exec(f"from stabvax import {name}", scope)
            module = sys.modules["stabvax." + next(
                m for m, names in stabvax._EXPORTS.items() if name in names)]
            if scope[name] is not vars(module).get(name) or getattr(
                    scope[name], "__module__", module.__name__) \
                    != module.__name__:
                report["wrong"].append(name)
        report["exports"] = len(stabvax.__all__)
        """, tmp_path)
    assert report == {"loaded": [], "import": [], "wrong": [], "exports": 42}
