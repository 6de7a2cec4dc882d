import csv
import dataclasses
import os
import stat
import tracemalloc

import numpy as np
import pytest

import stabvax as sv
from stabvax import bubar, dynamics, ingest, model, policies
from test_policies import reference_fill


def small_instance(seed=7, n=3, target_rt=1.3):
    return sv.synthetic_instance(seed, n=n, target_rt=target_rt)


def rhs_blocks(state, net, params, contacts=None):
    """Derivatives (ds, dxa, dxs, de, dh) of the covid models at one state."""
    rhs = dynamics.covid_rhs_factory(net, params, contacts)
    return rhs(0.0, dynamics._state_to_flat(state)).reshape(5, -1)


class TestCovidRhs:
    def test_disease_free_equilibrium(self):
        inst = small_instance()
        state = sv.EpidemicState(s=np.ones(3), xa=np.zeros(3), xs=np.zeros(3),
                                 e=np.zeros(3), h=np.zeros(3))
        for block in rhs_blocks(state, inst.net, inst.params):
            assert np.all(block == 0.0)

    def test_pure_decay_without_transmission(self):
        from dataclasses import replace
        inst = small_instance()
        params = replace(inst.params, beta_s=0.0, beta_a=0.0)
        state = sv.EpidemicState(s=np.full(3, 0.9), xa=np.full(3, 0.1),
                                 xs=np.zeros(3), e=np.zeros(3), h=np.zeros(3))
        ds, dxa, dxs, de, dh = rhs_blocks(state, inst.net, params)
        assert np.all(ds == 0.0)
        assert dxa == pytest.approx(-(params.eps + params.r_a) * state.xa)

    def test_single_node_hand_evaluation(self):
        net = sv.NetworkInstance(tau=[[1.0]], populations=[1000.0])
        eps, r_a, r_s, kappa = ingest.derive_disease_params(5.0025, 6.2475,
                                                            0.0242)
        params = sv.DiseaseParams(eps=eps, r_a=r_a, r_s=r_s, kappa=kappa,
                                  beta_s=0.3, beta_a=0.12)
        s, xa, xs = 0.9, 0.05, 0.02
        state = sv.EpidemicState(s=[s], xa=[xa], xs=[xs], e=[0.01], h=[0.02])
        ds, dxa, dxs, de, dh = rhs_blocks(state, net, params)
        force = 1.0 * (0.12 * xa + 0.3 * xs)  # a_11 = 1 for a closed node
        assert ds[0] == pytest.approx(-s * force)
        assert dxa[0] == pytest.approx(s * force - (eps + r_a) * xa)
        assert dxs[0] == pytest.approx(eps * xa - (r_s + kappa) * xs)
        assert de[0] == pytest.approx(kappa * xs)
        assert dh[0] == pytest.approx(r_a * xa + r_s * xs)

    def test_blocks_sum_to_zero(self):
        inst = small_instance()
        blocks = rhs_blocks(inst.state0, inst.net, inst.params)
        assert np.abs(sum(blocks)).max() < 1e-15


class TestDemographicRhs:
    def fixture(self):
        net = sv.NetworkInstance(tau=[[0.4, 0.1], [0.1, 0.4]],
                                 populations=[100.0, 200.0],
                                 group_populations=[[80.0, 20.0],
                                                    [100.0, 100.0]])
        gamma = np.array([[20.0, 2.0], [2.0, 4.0]])
        ref = np.ones(2)
        cs = sv.ContactStructure(contacts=gamma * (ref / ref.sum())[None, :],
                                 reference_pop=ref)
        eps, r_a, r_s, kappa = ingest.derive_disease_params(5.0025, 6.2475,
                                                            0.0242)
        params = sv.DiseaseParams(eps=eps, r_a=r_a,
                                  r_s=np.array([0.16, 0.10]),
                                  kappa=np.array([0.001, 0.06]),
                                  beta=0.004, beta0=np.array([0.7, 1.1]),
                                  alpha_hat=0.5)
        rng = np.random.default_rng(8)
        xa = rng.uniform(0.0, 0.03, 4)
        xs = rng.uniform(0.0, 0.01, 4)
        s = 1 - xa - xs
        state = sv.EpidemicState(s=s, xa=xa, xs=xs, e=np.zeros(4),
                                 h=np.zeros(4))
        return net, cs, params, state

    def test_zero_infection_zero_derivative(self):
        net, cs, params, _ = self.fixture()
        state = sv.EpidemicState(s=np.ones(4), xa=np.zeros(4), xs=np.zeros(4),
                                 e=np.zeros(4), h=np.zeros(4))
        for block in rhs_blocks(state, net, params, cs):
            assert np.all(block == 0.0)

    def test_matrix_form_matches_triple_sum(self):
        # elementwise expansion over destinations, groups, and origins
        net, cs, params, state = self.fixture()
        _, dxa, _, _, _ = rhs_blocks(state, net, params, cs)
        n, g = 2, 2
        gamma = cs.gamma
        tau = net.tau
        gp = net.group_populations
        mass = np.array([sum(gp[k, b] * tau[k, l] for k in range(n)
                             for b in range(g)) for l in range(n)])
        beta_s = params.beta * params.beta0
        ah = params.alpha_hat
        for i in range(n):
            for a in range(g):
                cell = i * g + a
                total = 0.0
                for l in range(n):
                    for b in range(g):
                        inner = sum(tau[j, l] * (ah * state.xa[j * g + b]
                                                 + state.xs[j * g + b])
                                    * gp[j, b] for j in range(n))
                        total += (state.s[cell] * tau[i, l] * gamma[a, b]
                                  * inner / mass[l] * beta_s[a])
                expected = total - (params.eps + params.r_a) * state.xa[cell]
                assert dxa[cell] == pytest.approx(expected, abs=1e-12)

    def test_uniform_mixing_collapses_to_homogeneous(self):
        # one location, equal groups, constant contact intensity:
        # every group sees the homogeneous force with beta_s = beta*beta0*c
        net = sv.NetworkInstance(tau=[[0.6]], populations=[900.0],
                                 group_populations=[[300.0, 300.0, 300.0]])
        c = 2.5
        ref = np.ones(3)
        cs = sv.ContactStructure(
            contacts=np.full((3, 3), c) * (ref / ref.sum())[None, :],
            reference_pop=ref)
        eps, r_a, r_s, kappa = ingest.derive_disease_params(5.0, 6.0, 0.01)
        demo = sv.DiseaseParams(eps=eps, r_a=r_a, r_s=r_s, kappa=kappa,
                                beta=0.002, beta0=np.full(3, 1.3),
                                alpha_hat=0.4)
        state3 = sv.EpidemicState(s=np.full(3, 0.9), xa=np.full(3, 0.06),
                                  xs=np.full(3, 0.04), e=np.zeros(3),
                                  h=np.zeros(3))
        blocks3 = rhs_blocks(state3, net, demo, cs)

        hom_net = sv.NetworkInstance(tau=[[0.6]], populations=[900.0])
        hom = sv.DiseaseParams(eps=eps, r_a=r_a, r_s=r_s, kappa=kappa,
                               beta_s=0.002 * 1.3 * c,
                               beta_a=0.4 * 0.002 * 1.3 * c)
        state1 = sv.EpidemicState(s=[0.9], xa=[0.06], xs=[0.04], e=[0.0],
                                  h=[0.0])
        blocks1 = rhs_blocks(state1, hom_net, hom)
        for b3, b1 in zip(blocks3, blocks1):
            assert b3 == pytest.approx(np.full(3, b1[0]), rel=1e-12)


class TestIntegrator:
    def test_constant_when_rhs_zero(self):
        # no one infected: every derivative is zero
        inst = small_instance()
        rhs = dynamics.covid_rhs_factory(inst.net, inst.params)
        state = sv.EpidemicState(s=np.array([0.3, 0.7, 1.0]), xa=np.zeros(3),
                                 xs=np.zeros(3), e=np.array([0.2, 0.0, 0.0]),
                                 h=np.array([0.5, 0.3, 0.0]))
        times, states, clamps = sv.integrate(
            rhs, dynamics._state_to_flat(state), (0.0, 2.0), 0.1)
        assert len(times) == 21
        assert np.all(states == states[0])
        assert clamps == 0

    def test_exponential_decay(self):
        # without transmission xa only leaves, at rate eps + r_a
        inst = small_instance()
        params = dataclasses.replace(inst.params, beta_a=0.0, beta_s=0.0)
        rhs = dynamics.covid_rhs_factory(inst.net, params)
        y0 = dynamics._state_to_flat(inst.state0)
        times, states, _ = sv.integrate(rhs, y0, (0.0, 5.0), 0.01)
        xa = states[:, 3:6]
        expected = y0[3:6] * np.exp(-(params.eps + params.r_a) * times[:, None])
        assert np.abs(xa - expected).max() <= 1e-8
        assert xa[-1].min() > 0.0

    def test_step_halving_convergence(self):
        inst = small_instance()
        rhs = dynamics.covid_rhs_factory(inst.net, inst.params)
        y0 = dynamics._state_to_flat(inst.state0)
        _, coarse, _ = sv.integrate(rhs, y0, (0.0, 30.0), 0.05)
        _, fine, _ = sv.integrate(rhs, y0, (0.0, 30.0), 0.025)
        assert np.abs(coarse[-1] - fine[-1]).max() < 1e-6

    def test_nonfinite_derivative_raises(self):
        # an infinite s makes inf - inf of the stage inputs, which numpy
        # warns about; the stepper raises on the step's non-finite k4
        rhs, _, y0 = crossing_system("covid")
        y0[0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(
                FloatingPointError, match="non-finite derivative at t=0.5"):
            sv.integrate(rhs, y0, (0.0, 1.0), 0.5)

    def test_bad_step_rejected(self):
        rhs, _, y0 = crossing_system("covid")
        with pytest.raises(ValueError, match="step must be positive"):
            sv.integrate(rhs, y0, (0.0, 1.0), -0.1)

    @pytest.mark.parametrize("span, step", [((0.0, 1.0), 0.3),
                                            ((0.0, 0.1), 0.25)])
    def test_span_of_no_whole_number_of_steps_rejected(self, span, step):
        rhs, _, y0 = crossing_system("covid")
        with pytest.raises(ValueError, match="whole number of steps"):
            sv.integrate(rhs, y0, span, step)


def reference_integrate(rhs, y0, t_span, step, clamp=(0.0, 1.0)):
    """The plain RK4 loop: finite check, clip and drift on every step."""
    n_steps = int(round((t_span[1] - t_span[0]) / step))
    times = t_span[0] + step * np.arange(n_steps + 1)
    y = np.array(y0, dtype=float)
    states, events = [y], np.zeros(y.shape[1:], dtype=int)
    for t in times[:-1]:
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * step, y + 0.5 * step * k1)
        k3 = rhs(t + 0.5 * step, y + 0.5 * step * k2)
        k4 = rhs(t + step, y + step * k3)
        if not np.all(np.isfinite(k4)):
            raise FloatingPointError
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        clipped = np.clip(y, *clamp)
        events += np.abs(clipped - y).max(axis=0, initial=0.0) > 1e-12
        y = clipped
        states.append(y)
    return np.array(states), events


class TestStepBookkeeping:
    """integrate checks bounds with one min and max per step and clips only
    when they are crossed: bit for bit the plain loop, clamp events too."""

    # covid bounds (0, 1); SEIR bounds (0, the largest float)
    @pytest.mark.parametrize("name", ["covid", "seir"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_derivative_raises(self, name, bad):
        # the first entry is covid s or SEIR S of the first cell, which the
        # derivative reads; inf - inf warns, the stepper's check raises
        rhs, clamp, y0 = crossing_system(name)
        y0[0] = bad
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            sv.integrate(rhs, y0, (0.0, 1.0), 0.5, clamp)

    def test_covid_columns_match_plain_loop(self):
        inst = small_instance()
        rhs = dynamics.covid_rhs_factory(inst.net, inst.params)
        y0 = random_states(np.random.default_rng(5), np.full(15, 0.3), 4)
        _, states, events = sv.integrate(rhs, y0, (0.0, 10.0), 0.25)
        ref_states, ref_events = reference_integrate(rhs, y0, (0.0, 10.0), 0.25)
        assert np.array_equal(states, ref_states)
        assert np.array_equal(events, ref_events)

    def test_depleted_seir_group_raises(self):
        params, state0 = bubar.us_like_instance(1.15, seed=0)
        state0.compartments[:, 3] = 0.0
        state0.compartments[12, 3] = params.populations[3]
        with pytest.raises(FloatingPointError, match="fully depleted"):
            bubar.simulate_bubar(params, state0, sv.PolicySpec("all-ages"),
                                 sv.VaccinationSchedule(0.01, total_budget=0.1),
                                 5)


def crossing_model(name):
    """A model's `SimulationModel` and an initial state of it. The state
    lies outside the clamp bounds in one entry that a step does not bring
    back, so the first step clips it: s = 1.01 in a covid cell, or a
    protected count of -1 person in an SEIR group, which has no dynamics."""
    if name == "seir":
        params, state0 = bubar.us_like_instance(1.15, seed=0)
        y0 = state0.compartments.copy()
        y0[bubar.COMPARTMENTS.index("Sv"), 0] = -1.0
        return bubar.bubar_model(params, state0), y0.reshape(-1)
    inst = sv.synthetic_instance(0, n=5, groups=(name == "age-structured"))
    y0 = dynamics._state_to_flat(inst.state0)
    y0[0] = 1.01
    return dynamics.covid_model(inst), y0


def crossing_system(name):
    """rhs, clamp and the initial state of `crossing_model`."""
    sim, y0 = crossing_model(name)
    return sim.rhs, sim.clamp, y0


def crossing_columns(crossing, clamp, columns):
    """`columns` states side by side: the last one is crossing, which
    crosses the bound; the others are it clipped into the bounds, scaled
    apart."""
    y0 = np.clip(crossing, *clamp)[:, None] * (1.0 - 0.1 * np.arange(columns))
    y0[:, -1] = crossing
    return y0


class TestDayStepper:
    """The RK4 stepper of simulate against the plain loop, a day at a time:
    bit for bit, states and clamp events alike, at every step whose half is
    a power of two."""

    DAYS = 60

    @pytest.mark.parametrize("step", [0.5, 0.25, 0.125])
    @pytest.mark.parametrize("columns", [1, 4])
    @pytest.mark.parametrize("name", ["covid", "age-structured", "seir"])
    def test_matches_plain_loop_day_by_day(self, name, columns, step):
        rhs, clamp, crossing = crossing_system(name)
        y0 = crossing_columns(crossing, clamp, columns)
        stepper = dynamics._RK4(rhs, y0, step, clamp)
        y, states, total = y0, [y0], np.zeros(columns, dtype=int)
        for day in range(self.DAYS):
            events = stepper.advance(float(day), int(round(1 / step)))
            ref, ref_events = reference_integrate(rhs, y, (day, day + 1),
                                                  step, clamp)
            y = ref[-1]
            assert np.array_equal(stepper.y, y), day
            assert np.array_equal(events, ref_events), day
            states.append(y)
            total += events
        assert total[-1] > 0
        # simulate, undosed, records the same states and counts the same
        # clamps as the plain loop; each of its columns starts at crossing
        sim, crossing = crossing_model(name)
        recorded = []

        def capture(ys, fields):
            recorded.append(ys.copy())
            return sim.columns(ys, fields)

        trajs = dynamics.simulate(
            dataclasses.replace(sim, y0=crossing, columns=capture),
            [sv.PolicySpec("no-vaccine")] * columns,
            sv.VaccinationSchedule(daily_rate=0.0), self.DAYS, step)
        y = np.repeat(crossing[:, None], columns, axis=1)
        states, total = [y], np.zeros(columns, dtype=int)
        for day in range(self.DAYS):
            ref, ref_events = reference_integrate(rhs, y, (day, day + 1),
                                                  step, clamp)
            y = ref[-1]
            states.append(y)
            total += ref_events
        assert np.all(total > 0)
        assert np.array_equal(recorded[0], np.array(states))
        assert np.array_equal([traj.clamp_events for traj in trajs], total)

    @pytest.mark.parametrize("columns", [1, 4])
    @pytest.mark.parametrize("name", ["covid", "age-structured", "seir"])
    def test_step_of_no_power_of_two_half_stays_close(self, name, columns):
        # at h = 0.2 the stage weights h/2 and h round, so the stepper leaves
        # the plain loop in the last bits: by at most 3.4e-16 of a column's
        # largest entry on these cases (covid, one column); clamp events
        # stay the same
        rhs, clamp, crossing = crossing_system(name)
        step, y = 0.2, crossing_columns(crossing, clamp, columns)
        stepper = dynamics._RK4(rhs, y, step, clamp)
        for day in range(self.DAYS):
            events = stepper.advance(float(day), 5)
            ref, ref_events = reference_integrate(rhs, y, (day, day + 1),
                                                  step, clamp)
            y = ref[-1]
            assert np.all(np.abs(stepper.y - y)
                          <= 1e-15 * np.abs(y).max(axis=0)), day
            assert np.array_equal(events, ref_events), day

    def test_day_loop_never_calls_integrate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the day loop called dynamics.integrate")

        monkeypatch.setattr(dynamics, "integrate", refuse)
        sched = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        for groups in (False, True):
            inst = sv.synthetic_instance(0, n=3, groups=groups)
            specs = DEFAULT_SPECS + ([sv.PolicySpec(
                kind="age-priority", priority_groups=(5, 4, 3, 2, 1, 0))]
                if groups else [])
            trajs = dynamics.simulate(dynamics.covid_model(inst), specs,
                                      sched, 5)
            assert all(traj.total_doses() > 0 for traj in trajs[:3])
        params, state0 = bubar.us_like_instance(1.15, seed=0)
        trajs = dynamics.simulate(bubar.bubar_model(params, state0),
                                  SEIR_POLICIES, sched, 5)
        assert all(traj.total_doses() > 0 for traj in trajs)


class TestWeightedStages:
    """bind(ys, weights) evaluates each stage times its RK4 weight; the
    stepper relies on a power-of-two weight being exact."""

    @pytest.mark.parametrize("columns", [1, 4])
    @pytest.mark.parametrize("name", ["covid", "age-structured", "seir"])
    def test_power_of_two_weights_scale_weight_one(self, name, columns):
        rhs, _, y = crossing_system(name)
        y = y[:, None] * (1.0 - 0.1 * np.arange(columns))
        weights = (1.0, 2.0, 0.125, 0.25)
        ks, stages = rhs.bind(np.stack([y] * len(weights)), weights)
        for evaluate in stages:
            evaluate()
        assert np.array_equal(ks[0], rhs(0.0, y))
        for k, w in zip(ks[1:], weights[1:]):
            assert np.array_equal(k, w * ks[0])


class TestCertificateInSimulation:
    """The simulator checks the certificate: the infection block M(s) is
    Metzler and rises entrywise with s, and s only falls once the plan is
    dosed, so with u the left Perron vector of M at the dosed state,
    d/dt u'x <= lambda_max(M) u'x <= -alpha u'x along the nonlinear
    trajectory (the linear Lyapunov function of a positive system, Rantzer
    2011): log(u'x(t)) + alpha t cannot rise. Measured, it fell by at least
    2.9e-4 a day on every case. It catches a slip that the allocator and
    the certificate share, which the eigen-solve checks cannot: b1's beta_a
    term negated after calibration fails every age-structured case."""

    BUDGET, DAYS = 0.05, 100

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("groups", [False, True],
                             ids=["covid", "age-structured"])
    def test_log_lyapunov_plus_alpha_t_never_rises(self, groups, seed):
        inst = sv.synthetic_instance(seed, n=5, groups=groups, target_rt=1.1)
        sim, m = dynamics.covid_model(inst), len(inst.cell_populations())
        plans = []

        def allocate(column, budget):
            plans.append(sim.allocate(column, budget))
            return plans[-1]

        # the whole budget is supplied, and dosed, on day 0
        traj, = dynamics.simulate(
            dataclasses.replace(sim, allocate=allocate),
            [sv.PolicySpec("optimal-stabilizing")],
            sv.VaccinationSchedule(self.BUDGET, total_budget=self.BUDGET),
            self.DAYS)
        (plan,) = plans
        assert plan.certificate.satisfied
        assert traj.doses[0] == pytest.approx(plan.dose_vector, rel=1e-12)
        block = model.infection_submatrix(traj.s[0], inst.net, inst.params,
                                          inst.contacts)
        values, vectors = np.linalg.eig(block.T)
        u = np.abs(vectors[:, np.argmax(values.real)].real)
        weighted = traj.xa @ u[:m] + traj.xs @ u[m:]
        lyapunov = np.log(weighted) + plan.alpha * traj.times
        assert np.all(np.diff(lyapunov) <= 0.0)


class TestVaccinationEvent:
    @staticmethod
    def vaccinate(state, v, psi):
        """Dose a copy of state with fractions v; returns the copy."""
        new = sv.EpidemicState(*state.compartments())
        new.vax += dynamics._vaccinate(new.s, v, psi)
        return new

    def test_perfect_vaccine_empties_susceptibles(self):
        state = sv.EpidemicState(s=[0.8], xa=[0.1], xs=[0.0], e=[0.0], h=[0.1])
        new = self.vaccinate(state, np.array([0.8]), psi=1.0)
        assert new.s == pytest.approx([0.0])
        assert new.vax == pytest.approx([0.8])

    def test_zero_efficacy_is_identity(self):
        state = sv.EpidemicState(s=[0.8], xa=[0.1], xs=[0.0], e=[0.0], h=[0.1])
        new = self.vaccinate(state, np.array([0.5]), psi=0.0)
        assert new.s == pytest.approx(state.s)

    def test_partial_efficacy_value(self):
        state = sv.EpidemicState(s=[0.9], xa=[0.05], xs=[0.0], e=[0.0],
                                 h=[0.05])
        new = self.vaccinate(state, np.array([0.1]), psi=0.95)
        assert new.s == pytest.approx([0.9 - 0.095])
        assert state.s == pytest.approx([0.9])

    def test_box_violation_rejected(self):
        state = sv.EpidemicState(s=[0.2], xa=[0.0], xs=[0.0], e=[0.0], h=[0.8])
        with pytest.raises(ValueError):
            self.vaccinate(state, np.array([0.3]), psi=0.9)


class TestSimulatePolicy:
    def test_zero_budget_equals_no_vaccine(self):
        inst = small_instance()
        sched0 = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.0)
        schedn = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        a = sv.simulate_policy(inst, sv.PolicySpec(kind="population-weighted"),
                               sched0, horizon=90)
        b = sv.simulate_policy(inst, sv.PolicySpec(kind="no-vaccine"),
                               schedn, horizon=90)
        assert np.allclose(a.s, b.s)
        assert np.allclose(a.cum_cases, b.cum_cases)
        assert a.total_doses() == b.total_doses() == 0.0

    def test_subcritical_epidemic_dies_out(self):
        inst = sv.synthetic_instance(11, n=1, target_rt=0.8)
        sched = sv.VaccinationSchedule(daily_rate=0.0, total_budget=0.0)
        traj = sv.simulate_policy(inst, sv.PolicySpec(kind="no-vaccine"),
                                  sched, horizon=300)
        new = traj.new_cases.sum(axis=1)
        assert np.all(np.diff(new[10:]) <= 1e-9)
        total = traj.cum_cases.sum(axis=1)
        assert total[-1] - total[-50] < 0.05 * total[-1]

    def test_rounding_of_cum_cases_is_no_new_case(self):
        # the policies of a default `compare` on this instance: under the
        # static optimal plan loc32 keeps its infected total on days 24-187,
        # where its cum_cases rounds either way by one ulp (7.3e-12 persons)
        inst = sv.synthetic_instance(2, n=50)
        sched = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        traj = dynamics.simulate(dynamics.covid_model(inst), DEFAULT_SPECS,
                                 sched, 200)[0]
        change = np.diff(traj.cum_cases, axis=0)
        assert np.all(traj.new_cases[24:188, 32] == 0.0)
        assert (change[23:187, 32] > 0).any()
        real = change > 1e-9 * traj.cum_cases[1:]
        assert np.array_equal(traj.new_cases[1:][real], change[real])

    def test_mass_conservation_with_dosing(self):
        inst = small_instance()
        sched = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        traj = sv.simulate_policy(inst, sv.PolicySpec(kind="population-weighted"),
                                  sched, horizon=200)
        totals = traj.s + traj.xa + traj.xs + traj.e + traj.h + traj.vax
        assert np.abs(totals - 1.0).max() < 1e-8

    def test_counters_monotone(self):
        inst = small_instance()
        sched = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        traj = sv.simulate_policy(inst, sv.PolicySpec(kind="infection-weighted"),
                                  sched, horizon=200)
        assert np.all(np.diff(traj.cum_cases.sum(axis=1)) >= -1e-9)
        assert np.all(np.diff(traj.cum_deaths.sum(axis=1)) >= -1e-9)
        assert np.all(np.diff(traj.doses.sum(axis=1)) >= -1e-9)

    def test_dose_accounting_budget_bound(self):
        inst = small_instance()
        sched = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        traj = sv.simulate_policy(inst, sv.PolicySpec(kind="population-weighted"),
                                  sched, horizon=500)
        budget = 0.05 * inst.net.total_population
        assert traj.total_doses() == pytest.approx(budget, abs=1.0)

    def test_spent_budget_stops_dosing(self, monkeypatch):
        # 5% of the population at 0.33% a day is spent in 16 epochs, one
        # emit_doses call each; the rounding residual left in the budget must
        # not keep the policy on
        real = policies.emit_doses
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(policies, "emit_doses", counted)
        inst = sv.synthetic_instance(0, n=5)
        sched = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        traj = sv.simulate_policy(inst, sv.PolicySpec(kind="infection-weighted"),
                                  sched, horizon=300)
        assert len(calls) == 16
        assert traj.total_doses() == pytest.approx(
            0.05 * inst.net.total_population, rel=1e-9)

    @pytest.mark.parametrize("groups", [(2, 2), ((0, 1), 1), ((3, 3),)])
    def test_priority_list_naming_a_group_twice_raises(self, groups):
        # emit_doses fills each tier once, so a repeat has no meaning
        with pytest.raises(ValueError, match="more than once"):
            sv.PolicySpec(kind="age-priority", priority_groups=groups)

    def test_leftover_rule_none_stops_dosing_after_extinction(self):
        # Rt 0.5: active infections fall below EXTINCTION_THRESHOLD on day
        # 117, when 0.1% a day has spent 62k of the 159k-dose budget
        inst = sv.synthetic_instance(0, n=3, target_rt=0.5)
        pops = inst.cell_populations()
        none, even = (sv.simulate_policy(
            inst, sv.PolicySpec(kind="population-weighted"),
            sv.VaccinationSchedule(daily_rate=0.001, total_budget=0.3,
                                   leftover_rule=rule), horizon=200)
            for rule in ("none", "even-split"))
        active = ((none.xa + none.xs) * pops).sum(axis=1)
        stop = int(np.argmax(active < dynamics.EXTINCTION_THRESHOLD))
        assert stop == 117
        doses_none, doses_even = (t.doses.sum(axis=1) for t in (none, even))
        np.testing.assert_array_equal(doses_none[:stop], doses_even[:stop])
        assert np.all(doses_none[stop:] == doses_none[stop - 1])
        # the last record follows the last day's dose
        assert np.all(np.diff(doses_even[stop - 1:-1]) > 0)
        assert doses_even[-1] - doses_none[-1] == pytest.approx(
            (200 - stop) * 0.001 * pops.sum(), rel=1e-9)

    def test_supply_interval_delivers_at_epoch_start(self):
        inst = small_instance()
        sched = sv.VaccinationSchedule(daily_rate=0.001, interval_days=7,
                                       total_budget=0.05)
        traj = sv.simulate_policy(inst, sv.PolicySpec(kind="population-weighted"),
                                  sched, horizon=21)
        doses = traj.doses.sum(axis=1)
        week = 0.007 * inst.net.total_population
        assert doses[0] == pytest.approx(week, rel=1e-9)
        assert doses[6] == pytest.approx(week, rel=1e-9)
        assert doses[7] == pytest.approx(2 * week, rel=1e-9)

    def test_front_loading_reduces_cases(self):
        inst = small_instance(seed=19, n=2, target_rt=1.4)
        finals = []
        for interval in (1, 4, 16):
            sched = sv.VaccinationSchedule(daily_rate=0.0033,
                                           interval_days=interval,
                                           total_budget=0.05)
            traj = sv.simulate_policy(
                inst, sv.PolicySpec(kind="population-weighted"), sched,
                horizon=400)
            finals.append(traj.final_cumulative_cases())
        assert finals[0] >= finals[1] >= finals[2]

    def test_trajectory_csv_round_trip(self, tmp_path):
        inst = small_instance()
        sched = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.02)
        traj = sv.simulate_policy(inst, sv.PolicySpec(kind="population-weighted"),
                                  sched, horizon=10)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = [{k: (v if k == "cell" else float(v)) for k, v in row.items()}
                    for row in reader]
        assert reader.fieldnames == ["t", "cell", "s", "xa", "xs", "e", "h",
                                     "new_cases", "cum_cases", "cum_deaths",
                                     "doses"]
        assert len(rows) == 11 * inst.net.n
        assert rows[0]["s"] == pytest.approx(traj.s[0, 0], rel=1e-10)
        assert rows[-1]["cum_cases"] == pytest.approx(traj.cum_cases[-1, -1],
                                                      rel=1e-10)

    def test_csv_write_is_atomic(self, tmp_path, monkeypatch):
        from stabvax import _text

        sched = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.02)
        monkeypatch.setattr(_text, "CHUNK", 1)  # one day a block
        traj = sv.simulate_policy(small_instance(), sv.PolicySpec(
            kind="population-weighted"), sched, horizon=3)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        path.write_bytes(b"old\n")
        blocks, written = _text.Rows.blocks, []

        def fail_after_first_block(rows, fields):
            for block in blocks(rows, fields):
                written.append(block)
                yield block
                # the header and the block went to a temporary file
                assert len(list(tmp_path.iterdir())) == 2
                raise OSError("no space left on device")

        monkeypatch.setattr(_text.Rows, "blocks", fail_after_first_block)
        with pytest.raises(OSError, match="no space"):
            traj.to_csv(path)
        assert len(written) == 1 and written[0].startswith(b"0,")
        assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]
        assert path.read_bytes() == b"old\n"

    def test_every_model_returns_a_trajectory(self):
        sched = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.02)
        spec = sv.PolicySpec(kind="population-weighted")
        models = [dynamics.covid_model(sv.synthetic_instance(0, 2, groups))
                  for groups in (False, True)]
        models.append(bubar.bubar_model(*bubar.us_like_instance(1.15)))
        for sim in models:
            (traj,) = dynamics.simulate(sim, [spec], sched, 5)
            assert type(traj) is dynamics.Trajectory
            assert traj.cum_cases is traj.fields["cum_cases"]
            assert traj.final_cumulative_cases() == \
                traj.fields["cum_cases"][-1].sum()
            assert traj.final_cumulative_deaths() == \
                traj.fields["cum_deaths"][-1].sum()
            assert traj.total_doses() == traj.fields["doses"][-1].sum() > 0
            assert not hasattr(traj, "cum_infected")


TRAJECTORY_FIELDS = ("s", "xa", "xs", "e", "h", "vax", "new_cases",
                     "cum_cases", "cum_deaths", "doses")
DEFAULT_SPECS = [sv.PolicySpec(kind=kind) for kind in
                 ("optimal-stabilizing", "population-weighted",
                  "infection-weighted", "no-vaccine")]


class TestSpentStaticPlan:
    """The static optimal plan keeps doses for cells whose susceptibles are
    gone; once the plan capped by headroom holds at most 1e-12 doses,
    emit_doses gives the column zeros without calling proportional_fill,
    which would return the same zeros, and marks the plan spent. Neither
    headroom nor plan grows, so no later epoch runs a dosing pass for the
    column on its plan."""

    def test_spent_plan_skips_fill_and_changes_nothing(self, monkeypatch):
        inst = sv.synthetic_instance(0, n=5)
        covid = dynamics.covid_model(inst)
        sched = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        specs = [sv.PolicySpec(kind="optimal-stabilizing")]
        fill = policies.proportional_fill
        emit_doses = policies.emit_doses
        fills, epochs = [], []  # epochs: (spendable plan, reached the fill)

        def counted_fill(*args):
            fills.append(args)
            return fill(*args)

        def recorded_epoch(planner, y, headroom, *args):
            spendable = np.minimum(headroom[0], planner.plans[0]).sum()
            before = len(fills)
            doses = emit_doses(planner, y, headroom, *args)
            if args[-2][0]:  # on its plan, not on the leftover rule
                epochs.append((spendable, len(fills) > before))
            return doses

        monkeypatch.setattr(policies, "proportional_fill", counted_fill)
        monkeypatch.setattr(policies, "emit_doses", recorded_epoch)
        fast = dynamics.simulate(covid, specs, sched, 300)[0]
        spendable, filled = np.array(epochs).T
        assert np.array_equal(filled.astype(bool), spendable > 1e-12)
        assert (spendable <= 1e-12).sum() == 1 and filled.sum() > 10
        # then the spent plan idles with budget left, days without doses
        assert (np.diff(fast.doses.sum(axis=1)) == 0).sum() > 100

        def unshortened(planner, y, headroom, supply, budget_left, planned,
                        spread):
            # the one-column fill, with no early return for a spent plan
            doses = np.zeros_like(headroom)
            for k in np.flatnonzero(planned):
                plan = planner.plans[k]
                doses[k] = reference_fill(plan, np.minimum(headroom[k], plan),
                                          supply[k])[0]
                planner.plans[k] = np.maximum(plan - doses[k], 0.0)
            for k in np.flatnonzero(spread):
                doses[k] = reference_fill(np.ones_like(headroom[k]),
                                          headroom[k], supply[k])[0]
            return doses

        monkeypatch.setattr(policies, "emit_doses", unshortened)
        slow = dynamics.simulate(covid, specs, sched, 300)[0]
        for name in TRAJECTORY_FIELDS:
            assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
        assert fast.clamp_events == slow.clamp_events


def assert_same_column(batched, single, fields):
    for name in fields:
        a, b = getattr(batched, name), getattr(single, name)
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


class TestBatchedSimulation:
    """Each column of a batched run against the K=1 run of its policy."""

    @pytest.mark.parametrize("groups,horizon,extra", [
        (False, 30, []),
        (True, 5, [sv.PolicySpec(kind="age-priority",
                                 priority_groups=(5, 4, 3, 2, 1, 0)),
                   sv.PolicySpec(kind="optimal-stabilizing",
                                 resolve_mode="daily-resolve")]),
    ])
    def test_columns_match_single_runs(self, groups, horizon, extra):
        inst = sv.synthetic_instance(0, n=5, groups=groups)
        sched = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
        specs = DEFAULT_SPECS + extra
        batch = dynamics.simulate(dynamics.covid_model(inst), specs, sched,
                                  horizon)
        assert len(batch) == len(specs)
        for spec, traj in zip(specs, batch):
            single = sv.simulate_policy(inst, spec, sched, horizon)
            assert_same_column(traj, single, TRAJECTORY_FIELDS)
            assert traj.clamp_events == single.clamp_events
            assert list(traj.labels) == list(single.labels)
            assert (traj.total_doses() > 0) == (spec.kind != "no-vaccine")

    def test_integrate_columns_match_one_dimensional_runs(self):
        # the last column starts at s = 1.01, so its first step is clamped
        rhs, clamp, crossing = crossing_system("covid")
        y0 = np.clip(crossing, *clamp)[:, None] * np.array([1.0, 0.9, 1.0])
        y0[:, -1] = crossing
        _, states, clamps = sv.integrate(rhs, y0, (0.0, 3.0), 0.1)
        assert states.shape == (31, 25, 3)
        assert clamps.shape == (3,) and clamps[2] > 0 and not clamps[:2].any()
        for k in range(3):
            _, single, single_clamps = sv.integrate(rhs, y0[:, k], (0.0, 3.0),
                                                    0.1)
            assert isinstance(single_clamps, int)
            assert np.abs(states[:, :, k] - single).max() <= 1e-15
            assert clamps[k] == single_clamps

    @pytest.mark.parametrize("name", ["covid", "seir"])
    def test_nonfinite_derivative_in_one_column_raises(self, name):
        # the second column's first s (SEIR: S) is infinite
        rhs, clamp, y0 = crossing_system(name)
        y0 = np.repeat(np.clip(y0, *clamp)[:, None], 2, axis=1)
        y0[0, 1] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            sv.integrate(rhs, y0, (0.0, 1.0), 0.5, clamp)


def reference_covid_rhs(inst, y):
    """The elementwise covid right-hand side the fused matrix replaced."""
    params = inst.params
    flow = model.flow_for_model(inst.net, params, inst.contacts)
    m = flow.shape[0]
    if params.is_demographic:
        beta_a, beta_s, r_s, kappa = (rate[:, None] for rate in
                                      model._cell_rates(inst.net, params))
    else:
        beta_a, beta_s = params.beta_a, params.beta_s
        r_s, kappa = params.r_s, params.kappa
    s, xa, xs = y.reshape(5, m, -1)[:3]
    inf = s * (beta_s * (flow @ xs) + beta_a * (flow @ xa))
    out = [-inf, inf - (params.eps + params.r_a) * xa,
           params.eps * xa - (r_s + kappa) * xs, kappa * xs,
           params.r_a * xa + r_s * xs]
    return np.stack(out).reshape(y.shape)


def reference_bubar_rhs(params, y):
    """The elementwise SEIR right-hand side the fused matrix replaced."""
    g = params.n_groups
    a, b = 1.0 / params.d_e, 1.0 / params.d_i
    survive, die = b * (1 - params.ifr[:, None]), b * params.ifr[:, None]
    S, Sx, _, E, Ex, Ev, I, Ix, Iv, _, _, _, D = y.reshape(13, g, -1)
    infectious = I + Ix + Iv
    lam = params.susceptibility[:, None] * (
        params.contacts @ (infectious / (params.populations[:, None] - D)))
    out = [-lam * S, -lam * Sx, 0.0 * S, lam * S - a * E, lam * Sx - a * Ex,
           -a * Ev, a * E - b * I, a * Ex - b * Ix, a * Ev - b * Iv,
           survive * I, survive * Ix, survive * Iv, die * infectious]
    return np.stack(out).reshape(y.shape)


def random_states(rng, scale, columns):
    """One state with entries in [0, scale), or `columns` side by side."""
    y = scale[:, None] * rng.uniform(0.0, 1.0, (scale.size, columns or 1))
    return y if columns else y[:, 0]


def weighted_stages(rhs, y, weights):
    """The stages bind evaluates at y with the given RK4 weights."""
    ks, stages = rhs.bind(np.stack([y] * len(weights)), weights)
    for evaluate in stages:
        evaluate()
    return ks


class TestFusedRhs:
    """The fused right-hand sides against the elementwise formulas; the
    covid models on the stacked matrix and, above their cell cutoffs, on the
    flow's factors."""

    @staticmethod
    def covid(groups, n, columns):
        inst = sv.synthetic_instance(0, n=n, groups=groups)
        m = inst.cell_populations().shape[0]
        y = random_states(np.random.default_rng(3), np.full(5 * m, 0.2),
                          columns)
        return inst, y, reference_covid_rhs(inst, y)

    def assert_covid_matches(self, groups, n, columns):
        inst, y, ref = self.covid(groups, n, columns)
        rhs = dynamics.covid_rhs_factory(inst.net, inst.params, inst.contacts)
        got = rhs(0.0, y)
        assert got.shape == y.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        ks = weighted_stages(rhs, y.reshape(len(y), -1), (1.0, 2.0))
        for k, weight in zip(ks, (1.0, 2.0)):
            expected = weight * ref.reshape(k.shape)
            assert np.abs(k - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("columns", [None, 3], ids=["1d", "2d"])
    @pytest.mark.parametrize("groups", [False, True],
                             ids=["covid", "covid-demographic"])
    def test_covid_matches_elementwise(self, groups, columns):
        # 5 and 30 cells: the stacked matrix
        self.assert_covid_matches(groups, 5, columns)

    @pytest.mark.parametrize("columns", [None, 3], ids=["1d", "2d"])
    @pytest.mark.parametrize("groups", [False, True],
                             ids=["covid", "covid-demographic"])
    def test_covid_factored_matches_elementwise(self, groups, columns):
        # 40 and 60 cells, above the cutoffs: the flow's factors
        self.assert_covid_matches(groups, 10 if groups else 40, columns)

    @pytest.mark.parametrize("groups", [False, True],
                             ids=["covid", "covid-demographic"])
    def test_paths_agree_at_the_cutoff(self, groups, monkeypatch):
        name = "FACTORED_AGE_CELLS" if groups else "FACTORED_CELLS"
        cutoff = getattr(dynamics, name)
        inst, y, _ = self.covid(groups, cutoff // (6 if groups else 1), 4)
        assert inst.cell_populations().shape == (cutoff,)

        def refuse(*args):
            raise AssertionError("the factored path formed the dense flow")

        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "flow_for_model", refuse)
            factored = dynamics.covid_rhs_factory(
                inst.net, inst.params, inst.contacts)(0.0, y)
        monkeypatch.setattr(dynamics, name, cutoff + 1)
        stacked = dynamics.covid_rhs_factory(
            inst.net, inst.params, inst.contacts)(0.0, y)
        assert np.abs(factored - stacked).max() <= 1e-13 * np.abs(
            stacked).max()

    @pytest.mark.parametrize("columns", [None, 3, 6],
                             ids=["1d", "2d", "2d-6"])
    def test_bubar_matches_elementwise(self, columns):
        params, _ = bubar.us_like_instance(1.15, seed=0)
        # persons: every compartment below a thirteenth of its group
        y = random_states(np.random.default_rng(4),
                          np.tile(params.populations, 13) / 13, columns)
        ref = reference_bubar_rhs(params, y)
        rhs = bubar.bubar_rhs_factory(params)
        got = rhs(0.0, y)
        assert got.shape == y.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        (k,) = weighted_stages(rhs, y.reshape(len(y), -1), (2.0,))
        expected = 2.0 * ref.reshape(k.shape)
        assert np.abs(k - expected).max() <= 1e-13 * np.abs(expected).max()


class TestStageBuffers:
    """np.dot, unlike np.matmul, does not check its out buffer against its
    inputs, so the stages' derivative buffers must alias neither the stage
    inputs nor each other."""

    @staticmethod
    def rhs_and_state(name, n):
        if name == "seir":
            params, state0 = bubar.us_like_instance(1.15, seed=0)
            return bubar.bubar_rhs_factory(params), state0.compartments.ravel()
        inst = sv.synthetic_instance(0, n=n, groups=name == "age")
        return (dynamics.covid_rhs_factory(inst.net, inst.params,
                                           inst.contacts),
                dynamics._state_to_flat(inst.state0))

    @pytest.mark.parametrize("name, n", [
        ("covid", 5), ("covid", 40), ("age", 5), ("age", 10), ("seir", None)],
        ids=["covid-stacked", "covid-factored", "age-stacked", "age-factored",
             "seir"])
    def test_stage_outputs_alias_no_input(self, name, n):
        rhs, y = self.rhs_and_state(name, n)
        ys = np.stack([y[:, None] * (1.0 - 0.1 * np.arange(4))] * 4)
        ks, stages = rhs.bind(ys, (1.0, 2.0, 2.0, 1.0))
        for evaluate in stages:
            evaluate()
        assert not np.shares_memory(ks, ys)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.shares_memory(ks[i], ks[j]), (i, j)
        # the stages read inputs that no stage overwrote
        assert np.array_equal(ks[3], rhs(0.0, ys[3]))


class TestColumnStates:
    """simulate builds a column's model state only to allocate, which
    builds it from the column; the dosing pass reads and doses the
    stepper's live state array directly."""

    @pytest.mark.parametrize("name", ["covid", "seir"])
    def test_states_built_only_to_allocate(self, name):
        def susceptible(col):  # of the model's own state over a column
            if name == "covid":
                return sv.EpidemicState(*col.reshape(5, -1)).s
            state = bubar.BubarState(col.reshape(len(bubar.COMPARTMENTS), -1))
            return state.S + state.Sx

        if name == "seir":
            sim = bubar.bubar_model(*bubar.us_like_instance(1.15, seed=0))
            field = "susceptible"
        else:
            sim = dynamics.covid_model(sv.synthetic_instance(0, n=5))
            field = "s"
        calls = []
        counting = dataclasses.replace(
            sim, allocate=lambda col, budget: calls.append(budget) or
            sim.allocate(col, budget))
        specs = [sv.PolicySpec("no-vaccine"),
                 sv.PolicySpec("population-weighted"),
                 sv.PolicySpec("infection-weighted"),
                 sv.PolicySpec("optimal-stabilizing")]
        trajs = dynamics.simulate(counting, specs, sv.VaccinationSchedule(
            daily_rate=0.0033, total_budget=0.05), 10)
        # one call for the static plan, of the whole budget; none per day
        assert calls == [0.05 * float(sim.populations.sum())]
        # day 0's doses land in the state recorded after them
        for traj in trajs:
            y = sim.y0[:, None].copy()
            sim.vaccinate(y, traj.doses[:1])
            assert np.array_equal(getattr(traj, field)[0],
                                  susceptible(y[:, 0]))
        assert np.all(np.diff(trajs[1].doses.sum(axis=1))[:-1] > 0)
        if name == "covid":
            # every day: the doses moved out of s are the vaccinated pool
            for traj in trajs:
                total = traj.s + traj.xa + traj.xs + traj.e + traj.h + traj.vax
                assert np.abs(total - 1.0).max() < 1e-12


def test_age_model_at_400_locations_forms_no_dense_flow():
    # one stacked (5m x 2m) matrix of this model's m = 2400 cells takes
    # 461 MB and one (m x m) array 46 MB; advancing two policies a day took
    # a 6.7 MB peak, instance set aside
    inst = sv.synthetic_instance(0, 400, groups=True)
    tracemalloc.start()
    try:
        trajs = dynamics.simulate(
            dynamics.covid_model(inst),
            [sv.PolicySpec("no-vaccine"), sv.PolicySpec("population-weighted")],
            sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.05), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert trajs[1].total_doses() > 0
    for traj in trajs:
        assert all(np.isfinite(getattr(traj, name)).all()
                   for name in ("s", "xa", "xs", "e", "h"))


SEIR_POLICIES = [sv.PolicySpec(kind) for kind in
                 ("optimal-stabilizing", *policies.AGE_BANDS)]


class TestAgeBands:
    """Every model resolves the preset age bands against its own groups' age
    ranges, through the helper emit_doses doses them by; the homogeneous
    model has none."""

    SCHEDULE = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
    # the nine decades 0-9 ... 80-89
    SEIR = {"under-20": ((0, 1),), "adults-20-49": ((2, 3, 4),),
            "adults-20-plus": ((2, 3, 4, 5, 6, 7, 8),),
            "seniors-60-plus": ((6, 7, 8),), "all-ages": (tuple(range(9)),)}
    # the NY groups 0-4, 5-19, 20-29, 30-44, 45-64 and 65-89
    NY = {"under-20": ((0, 1),), "adults-20-49": ((2, 3),),
          "adults-20-plus": ((2, 3, 4, 5),), "seniors-60-plus": ((5,),),
          "all-ages": (tuple(range(6)),)}

    @staticmethod
    def models():
        params, state0 = bubar.us_like_instance(1.15, seed=0)
        inst = sv.synthetic_instance(0, n=2, groups=True)
        return bubar.bubar_model(params, state0), dynamics.covid_model(inst)

    @pytest.mark.parametrize("band", policies.AGE_BANDS)
    def test_band_groups_on_each_model(self, band):
        seir, age = self.models()
        assert policies.priority_tiers(sv.PolicySpec(band), seir) == self.SEIR[band]
        assert policies.priority_tiers(sv.PolicySpec(band), age) == self.NY[band]

    @pytest.mark.parametrize("band", policies.AGE_BANDS)
    def test_band_doses_as_its_priority_list(self, band):
        for model, tiers in zip(self.models(), (self.SEIR, self.NY)):
            by_band, by_list = dynamics.simulate(model, [
                sv.PolicySpec(band),
                sv.PolicySpec("age-priority", priority_groups=tiers[band])],
                self.SCHEDULE, 20)
            assert by_band.total_doses() > 0
            np.testing.assert_array_equal(by_band.doses, by_list.doses)

    @pytest.mark.parametrize("band", policies.AGE_BANDS)
    def test_band_without_age_ranges_raises(self, band):
        # the homogeneous model has no groups, and two groups are not the
        # six NY groups whose ages the package knows
        net, cs, params, state = TestDemographicRhs().fixture()
        for inst in (small_instance(), sv.EpidemicInstance(net, params, state,
                                                           cs)):
            model = dynamics.covid_model(inst)
            assert model.age_ranges == ()
            with pytest.raises(ValueError, match="age band"):
                dynamics.simulate(model, [sv.PolicySpec(band)],
                                  self.SCHEDULE, 5)


def assert_finals_close(coarse_runs, fine_runs, rel):
    for coarse, fine in zip(coarse_runs, fine_runs):
        for final in ("final_cumulative_cases", "final_cumulative_deaths"):
            assert getattr(coarse, final)() == pytest.approx(
                getattr(fine, final)(), rel=rel, abs=0), final


class TestDefaultStepAccuracy:
    """Final cumulative cases and deaths at DEFAULT_STEP against a run at a
    quarter of it, over a 300-day horizon."""

    SCHEDULE = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n,groups", [(5, False), (50, False), (5, True)],
                             ids=["covid-n5", "covid-n50", "age-n5"])
    def test_covid_models(self, n, groups, seed):
        inst = sv.synthetic_instance(seed, n=n, groups=groups)
        coarse, fine = (dynamics.simulate(
            dynamics.covid_model(inst), DEFAULT_SPECS, self.SCHEDULE, 300,
            step)
            for step in (dynamics.DEFAULT_STEP, dynamics.DEFAULT_STEP / 4))
        assert_finals_close(coarse, fine, 1e-10)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_seir_model(self, seed):
        params, state0 = bubar.us_like_instance(1.15, seed=seed)
        coarse, fine = (dynamics.simulate(
            bubar.bubar_model(params, state0), SEIR_POLICIES, self.SCHEDULE,
            300, step)
            for step in (dynamics.DEFAULT_STEP, dynamics.DEFAULT_STEP / 4))
        assert_finals_close(coarse, fine, 1e-9)


class TestTrajectoryCsv:
    def test_bytes_match_csv_writer(self, tmp_path):
        import csv

        inst = sv.synthetic_instance(2, n=2, groups=True)
        sched = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.02)
        traj = sv.simulate_policy(inst, sv.PolicySpec(kind="infection-weighted"),
                                  sched, horizon=4)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "cell", "s", "xa", "xs", "e", "h",
                             "new_cases", "cum_cases", "cum_deaths", "doses"])
            for k, t in enumerate(traj.times):
                for i, label in enumerate(traj.labels):
                    writer.writerow([f"{t:.6g}", label] + [
                        f"{getattr(traj, name)[k, i]:.12g}" for name in
                        ("s", "xa", "xs", "e", "h", "new_cases", "cum_cases",
                         "cum_deaths", "doses")])
        out = tmp_path / "traj.csv"
        traj.to_csv(out)
        assert out.read_bytes() == ref.read_bytes()

    def test_label_count_must_match_cells(self, tmp_path):
        traj = sv.simulate_policy(small_instance(), sv.PolicySpec(
            kind="no-vaccine"), sv.VaccinationSchedule(daily_rate=0.0), 2)
        for labels in (traj.labels[:-1], [*traj.labels, "extra"]):
            traj.labels = labels
            with pytest.raises(ValueError, match="labels"):
                traj.to_csv(tmp_path / "traj.csv")
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("name", ["covid-n50", "age-n5"])
    def test_long_runs_match_csv_writer(self, tmp_path, csv_trajectories,
                                        name):
        for k, traj in enumerate(csv_trajectories[name]):
            traj.to_csv(tmp_path / f"{k}.csv")
            assert (tmp_path / f"{k}.csv").read_bytes() == \
                csv_writer_bytes(traj), k

    def test_long_runs_take_every_notation(self, csv_trajectories):
        values = csv_values([t for trajs in csv_trajectories.values()
                             for t in trajs])
        positive = values[values > 0]
        assert (values == 0).any() and (values >= 1e4).any()
        assert (positive < 1e-4).any() and (positive < 1e-11).any()

    @pytest.mark.parametrize("days, cells, chunk, blocks", [
        (10, 4, 3 * 4 * 9, 4),  # three days a block, the last one day
        (3, 4, 20, 3),  # a day of 36 values is wider than a block
        (1, 3, 16384, 1),  # one day
    ])
    def test_block_boundaries_match_csv_writer(self, tmp_path, monkeypatch,
                                               days, cells, chunk, blocks):
        from stabvax import _text

        monkeypatch.setattr(_text, "CHUNK", chunk)
        traj = seeded_trajectory(days, cells)
        slow = [0.1234567890125, -1.23456789012e-100]  # near a tie; 20 bytes
        assert _text.split(np.array(slow))[-1].all()
        if days > 1:  # both past the first block
            traj.s[-1, 0], traj.doses[-1, -1] = slow
        written = []
        blocks_of = _text.Rows.blocks

        def counted(rows, fields):
            for block in blocks_of(rows, fields):
                written.append(block)
                yield block

        monkeypatch.setattr(_text.Rows, "blocks", counted)
        traj.to_csv(tmp_path / "traj.csv")
        assert len(written) == blocks
        assert (tmp_path / "traj.csv").read_bytes() == csv_writer_bytes(traj)
        assert b",-1.23456789012e-100\r\n" in written[-1] or days == 1

    def test_one_simulation_shares_its_rows(self, tmp_path, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        from stabvax import _text

        monkeypatch.setattr(_text, "CHUNK", 50)  # many blocks a file
        sched = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.02)
        trajs = dynamics.simulate(dynamics.covid_model(small_instance()),
                                  DEFAULT_SPECS, sched, 30)
        rows_type, built = _text.Rows, []

        def counted_rows(*args):
            built.append(rows_type(*args))
            return built[-1]

        monkeypatch.setattr(_text, "Rows", counted_rows)
        # two threads at once each take their own buffers
        with ThreadPoolExecutor(2) as pool:
            list(pool.map(lambda k: trajs[k].to_csv(tmp_path / f"{k}.csv"),
                          range(len(trajs))))
        assert len(built) == 1 and len(built[0].idle) in (1, 2)
        for k, traj in enumerate(trajs):
            assert (tmp_path / f"{k}.csv").read_bytes() == \
                csv_writer_bytes(traj)
        # rows follow the labels they were built from
        trajs[0].labels = [label + "x" for label in trajs[0].labels]
        trajs[0].to_csv(tmp_path / "relabelled.csv")
        assert len(built) == 2
        assert (tmp_path / "relabelled.csv").read_bytes() == \
            csv_writer_bytes(trajs[0])

    def test_few_values_fall_back_to_python(self, csv_trajectories):
        from stabvax import _text

        slow = _text.split(csv_values(csv_trajectories["covid-n50"]))[-1]
        assert slow.mean() <= 0.005


CSV_COLUMNS = ("s", "xa", "xs", "e", "h", "new_cases", "cum_cases",
               "cum_deaths", "doses")


def csv_values(trajs) -> np.ndarray:
    """Every value the CSV files of trajs hold."""
    return np.concatenate([np.stack([getattr(t, name) for name in
                                     CSV_COLUMNS]).ravel() for t in trajs])


def seeded_trajectory(days: int, cells: int, seed: int = 0):
    """A trajectory of seeded values spanning '%.12g''s notations, without
    simulating."""
    rng = np.random.default_rng(seed)
    fields = {name: 10 ** rng.uniform(-12, 8, (days, cells)) for name in
              CSV_COLUMNS}
    fields["new_cases"][rng.random((days, cells)) < 0.3] = 0.0
    return dynamics.Trajectory(np.arange(days, dtype=float), fields, 0,
                               [f"cell-{i}" for i in range(cells)])


def csv_writer_bytes(traj) -> bytes:
    """The rows csv.writer writes for a trajectory, with Python's '%.6g' and
    '%.12g'."""
    import csv
    import io

    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["t", "cell", *CSV_COLUMNS])
    values = np.stack([getattr(traj, name) for name in CSV_COLUMNS], axis=-1)
    for t, day in zip(traj.times.tolist(), values.tolist()):
        for label, row in zip(traj.labels, day):
            writer.writerow([f"{t:.6g}", label, *(f"{x:.12g}" for x in row)])
    return fh.getvalue().encode()


@pytest.fixture(scope="module")
def csv_trajectories():
    """The four default policies over 200 days on homogeneous n=50 and on
    age-structured n=5, whose values take every notation of '%.12g'."""
    sched = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)
    return {name: dynamics.simulate(
        dynamics.covid_model(sv.synthetic_instance(1, n=n, groups=groups)),
        DEFAULT_SPECS, sched, 200) for name, n, groups in (("covid-n50", 50, False),
                                     ("age-n5", 5, True))}
