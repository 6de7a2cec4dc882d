from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from stabvax import allocator, bubar
from stabvax.dynamics import VaccinationSchedule


def symmetric_fixture():
    """The SEIR fixture with its contact gram C diag(1/N) symmetrized."""
    params, _ = bubar.us_like_instance(1.15, seed=0)
    gram = params.contacts / params.populations[None, :]
    contacts = 0.5 * (gram + gram.T) * params.populations[None, :]
    params = bubar.calibrate_r0(replace(params, contacts=contacts), 1.15)
    return params, bubar.initial_bubar_state(params, 0.001, 0.001)


class TestAllocationRoutes:
    @pytest.mark.parametrize("alpha", [0.0, 0.01])
    def test_lmi_and_bilinear_agree_on_symmetric_contacts(self, alpha):
        params, state = symmetric_fixture()
        prob = bubar.bubar_problem(state, params, alpha)
        lmi = allocator.solve_diagonal_lmi(prob)
        bil = allocator.solve_bilinear(prob)
        assert lmi.stats.method == "lmi-cutting-plane"
        assert bil.stats.method == "bilinear-slp"
        assert lmi.certificate.satisfied and bil.certificate.satisfied
        assert lmi.doses == pytest.approx(bil.doses, rel=1e-6)
        _, routed = bubar.solve_bubar_allocation(state, params, alpha=alpha)
        assert routed.stats.method == "lmi-cutting-plane"

    def test_default_fixture_routes_to_bilinear(self):
        params, state = bubar.us_like_instance(1.15, seed=0)
        assert bubar.bubar_problem(state, params, 0.0).factor is None
        _, res = bubar.solve_bubar_allocation(state, params, alpha=0.0)
        assert res.stats.method == "bilinear-slp"
        assert res.certificate.satisfied

    def test_budgeted_bisection_shares_one_cut_pool(self, monkeypatch):
        params, state = symmetric_fixture()
        supply = 0.05 * params.populations.sum()
        cap = supply + 1e-9 * (1.0 + supply)

        def cold(rate):
            try:
                _, res = bubar.solve_bubar_allocation(state, params, alpha=rate)
            except allocator.InfeasibleAllocationError:
                return None
            return res if res.doses <= cap else None

        cold_alpha, cold_res = allocator.bisect_rate(
            cold, -2.0, min(1 / params.d_e, 1 / params.d_i) - 1e-4, 1e-5)
        real_pool, pools = allocator.CutPool, []

        def tracked_pool():
            pools.append(real_pool())
            return pools[-1]

        monkeypatch.setattr(allocator, "CutPool", tracked_pool)
        alpha, res = bubar.solve_bubar_allocation(state, params, supply=supply)
        assert len(pools) == 1
        assert res.stats.cuts == len(pools[0].rows) > 0
        assert res.stats.lp_calls == pools[0].lp_calls >= res.stats.cuts
        assert res.certificate.satisfied and cold_res.certificate.satisfied
        assert res.doses <= cap
        assert abs(alpha - cold_alpha) <= 1e-5


# budgeted SEIR bisection at a 5% supply: (alpha, doses, dose vector) for
# (r0, seed), pinned while each SLP step was still solved by linprog
BILINEAR_GOLDEN = {
    (1.05, 0): (0.004661224746704107, 49986.57581587254,
                [2.55691791067e-05, 2.72458380036e-05, 6879.58702374,
                 31846.3838822, 11260.6047837, 2.74554234831e-05,
                 2.3892495271e-05, 1.38325044813e-05, 8.17375264802e-06]),
    (1.05, 1): (0.005399716567993169, 49987.91881295879,
                [3.91437903014e-05, 4.17106076012e-05, 35201.0854196,
                 13172.3159807, 1614.51721949, 4.20314473694e-05,
                 3.65769977903e-05, 2.11761559631e-05, 1.25131785621e-05]),
    (1.05, 2): (0.004711576461791997, 49974.5897866447,
                [8.66185855491e-05, 9.22985009715e-05, 20468.5334685,
                 6453.30919434, 23052.7466964, 9.30084903993e-05,
                 8.09386950552e-05, 4.68592399135e-05, 2.76895502914e-05]),
    (1.5, 0): (-0.04343305511474609, 49988.84952494703,
               [4.54557974554e-05, 4.84365049012e-05, 6878.99070288,
                31847.8199876, 11262.0386101, 4.88090888786e-05,
                4.24750900095e-05, 2.4590836428e-05, 1.45309532517e-05]),
    (1.5, 1): (-0.042543508148193354, 49982.61265562682,
               [3.96823755365e-05, 4.22844831383e-05, 35199.0704293,
                13171.9019654, 1611.6400651, 4.26097488018e-05,
                3.70802502283e-05, 2.14675072326e-05, 1.26853431708e-05]),
    (1.5, 2): (-0.04337431144714356, 49968.47580507953,
               [8.82002000599e-05, 9.3983819736e-05, 20474.194465,
                6447.26315621, 23047.0177487, 9.47067721955e-05,
                8.24165803839e-05, 4.77148623275e-05, 2.81951459208e-05]),
    (2.5, 0): (-0.12995408554077148, 49983.68513759606,
               [1.91805606871e-05, 2.04383121056e-05, 6877.02626266,
                31844.6582072, 11262.0005731, 2.05955161884e-05,
                1.79228241131e-05, 1.03763749801e-05, 6.13149363169e-06]),
    (2.5, 1): (-0.12879599609375003, 49974.247987494884,
               [3.96814023419e-05, 4.22834755417e-05, 35195.3329162,
                13169.9958133, 1608.91906221, 4.26087162473e-05,
                3.70793438976e-05, 2.14669932319e-05, 1.26850367603e-05]),
    (2.5, 2): (-0.129870166015625, 49986.62003277435,
               [8.82017878762e-05, 9.39855364826e-05, 20482.2122873,
                6452.55555483, 23051.8517554, 9.47084790917e-05,
                8.2418068946e-05, 4.77157256885e-05, 2.8195659461e-05]),
}


class TestBilinearRoute:
    @pytest.mark.parametrize("r0, seed", sorted(BILINEAR_GOLDEN))
    def test_budgeted_bisection_matches_golden(self, r0, seed, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("the SLP step must not call linprog")

        monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
        params, state = bubar.us_like_instance(r0, seed=seed)
        alpha, res = bubar.solve_bubar_allocation(
            state, params, supply=0.05 * params.populations.sum())
        golden_alpha, golden_doses, golden_vec = BILINEAR_GOLDEN[r0, seed]
        assert res.stats.method == "bilinear-slp"
        assert res.certificate.satisfied
        assert alpha == pytest.approx(golden_alpha, rel=0, abs=1e-12)
        assert res.doses == pytest.approx(golden_doses, rel=1e-9)
        assert np.abs(res.dose_vector - golden_vec).max() <= \
            1e-9 * max(golden_vec)

    def test_bisection_stats_count_every_probe(self, monkeypatch):
        steps, probes = [0], []
        knapsack, minimize = allocator._knapsack, allocator.spectral_box_minimize

        def counted_step(*args):
            steps[0] += 1
            return knapsack(*args)

        def recorded_probe(*args, **kwargs):
            v, d, stats = minimize(*args, **kwargs)
            probes.append(stats)
            return v, d, stats

        monkeypatch.setattr(allocator, "_knapsack", counted_step)
        monkeypatch.setattr(allocator, "spectral_box_minimize", recorded_probe)
        params, state = bubar.us_like_instance(1.15, seed=0)
        _, res = bubar.solve_bubar_allocation(
            state, params, supply=0.05 * params.populations.sum())
        assert len(probes) > 1
        assert res.stats.lp_calls == steps[0] > probes[-1].lp_calls
        assert res.stats.lp_calls == sum(p.lp_calls for p in probes)
        assert res.stats.iterations == sum(p.iterations for p in probes)


SEIR_POLICIES = ["optimal-stabilizing", *bubar.PRIORITY_PRESETS]


class TestBatchedSimulation:
    def test_columns_match_single_runs(self):
        params, state0 = bubar.us_like_instance(1.15, seed=0)
        sched = VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        batch = bubar.simulate_bubar_policies(params, state0, SEIR_POLICIES,
                                              sched, horizon=60)
        assert len(batch) == len(SEIR_POLICIES) == 6
        for name, traj in zip(SEIR_POLICIES, batch):
            single = bubar.simulate_bubar(params, state0, name,
                                          daily_rate=0.0033,
                                          total_budget=0.05, horizon=60)
            for field in ("susceptible", "infectious", "cum_infected",
                          "deaths", "doses"):
                a, b = getattr(traj, field), getattr(single, field)
                assert a.shape == b.shape == (61, params.n_groups)
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), field
            assert traj.total_doses() == pytest.approx(
                0.05 * params.populations.sum(), rel=1e-9)
