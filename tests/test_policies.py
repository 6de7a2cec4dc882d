"""The batched dosing pass of `policies`, bit for bit against the
one-column-at-a-time algorithm it replaced."""

import numpy as np
import pytest

import stabvax as sv
from stabvax import bubar, dynamics, policies


def reference_fill(weights, caps, amount):
    """proportional_fill on one row as it was before it was batched: the
    oracle of the batched fill. Returns (doses, rounds)."""
    weights = np.maximum(np.asarray(weights, dtype=float), 0.0)
    caps = np.maximum(np.asarray(caps, dtype=float), 0.0)
    doses = np.zeros_like(caps)
    remaining = min(float(amount), float(caps.sum()))
    active = (weights > 0) & (caps > 0)
    rounds = 0
    while remaining > 1e-12 and active.any():
        rounds += 1
        share = np.where(active, weights, 0.0)
        alloc = remaining * share / share.sum()
        room = caps - doses
        overflow = active & (alloc >= room - 1e-15)
        if not overflow.any():
            doses += alloc
            break
        remaining -= float(room[overflow].sum())
        doses[overflow] = caps[overflow]
        active &= ~overflow
    return doses, rounds


def reference_doses(spec, model, headroom, infected, plan, amount):
    """One column's doses as emit_doses gave them one column at a time."""
    if spec.kind == "population-weighted":
        return reference_fill(model.populations, headroom, amount)[0]
    if spec.kind == "infection-weighted":
        weights = infected if infected.sum() > 0 else headroom
        return reference_fill(weights, headroom, amount)[0]
    if spec.kind == "optimal-stabilizing":
        return reference_fill(plan, np.minimum(headroom, plan), amount)[0]
    doses, left = np.zeros_like(headroom), amount
    for tier in policies.priority_tiers(spec, model):
        if left <= 1e-12:
            break
        idx = np.concatenate([np.arange(g, headroom.size, model.n_groups)
                              for g in np.atleast_1d(tier)])
        filled = reference_fill(headroom[idx], headroom[idx], left)[0]
        doses[idx] += filled
        left -= float(filled.sum())
    return doses


class TestBatchedFill:
    """Each row of one batched fill against the row filled alone."""

    @pytest.mark.parametrize("cells", [3, 8, 9, 30, 50])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_match_the_one_row_fill(self, cells, seed):
        rng = np.random.default_rng(1000 * cells + seed)
        rows = 12
        weights = rng.random((rows, cells)) * 10.0 ** rng.uniform(
            -3, 3, (rows, 1))
        caps = rng.random((rows, cells)) * 10.0 ** rng.uniform(
            -2, 2, (rows, cells))
        weights[rng.random((rows, cells)) < 0.2] = 0.0
        caps[rng.random((rows, cells)) < 0.2] = 0.0
        caps[0] = 0.0  # nothing to fill
        weights[1] = 0.0  # no cell is weighed
        # from a sliver of the caps to twice their sum
        amounts = caps.sum(axis=1) * rng.uniform(0.01, 2.0, rows)
        amounts[2] = 0.0
        batched = policies.proportional_fill(weights, caps, amounts)
        rounds = []
        for row in range(rows):
            alone, n_rounds = reference_fill(weights[row], caps[row],
                                             amounts[row])
            assert np.array_equal(batched[row], alone), row
            assert np.array_equal(policies.proportional_fill(
                weights[row:row + 1], caps[row:row + 1], amounts[row:row + 1]
            )[0], alone), row
            rounds.append(n_rounds)
        assert max(rounds) >= 2  # overflow rounds ran
        assert rounds[0] == rounds[1] == rounds[2] == 0

    def test_amount_beyond_the_caps_fills_every_cap(self):
        caps = np.array([[1.0, 0.0, 2.0, 3.0, 0.5, 0.25, 4.0, 1.5, 2.5]])
        doses = policies.proportional_fill(np.ones_like(caps), caps, [100.0])
        assert np.array_equal(doses, caps)


def pass_models():
    inst = sv.synthetic_instance(0, n=5, groups=True)
    return {"age": dynamics.covid_model(inst),
            "seir": bubar.bubar_model(*bubar.us_like_instance(1.15, seed=0))}


FILL_SPECS = [sv.PolicySpec(kind) for kind in
              ("optimal-stabilizing", "population-weighted",
               "infection-weighted", *policies.AGE_BANDS)]
SCHEDULE = sv.VaccinationSchedule(daily_rate=0.0033, total_budget=0.05)


class TestDosingPass:
    """One dosing pass over K columns whose states are identical, against
    each policy dosed alone and against the one-column algorithm."""

    @pytest.mark.parametrize("name", ["age", "seir"])
    @pytest.mark.parametrize("share", [0.0033, 0.3])
    def test_columns_match_each_policy_alone(self, name, share):
        model = pass_models()[name]
        specs = FILL_SPECS + [sv.PolicySpec(
            "age-priority", priority_groups=tuple(range(model.n_groups))[::-1])]
        k = len(specs)
        y = np.repeat(model.y0[:, None], k, axis=1)
        # a supply beyond some bands' headroom makes their fills overflow
        supply = np.full(k, share * model.populations.sum())
        budget_left = np.full(k, 0.05 * model.populations.sum())
        planner = policies.DosePlanner(specs, model, SCHEDULE)
        plan = planner.plans[0].copy()
        headroom = model.headroom(y)
        assert headroom.flags.c_contiguous
        everyone, nobody = np.ones(k, bool), np.zeros(k, bool)
        doses = policies.emit_doses(planner, y, headroom, supply, budget_left,
                                    everyone, nobody)
        assert doses.shape == headroom.shape and doses.flags.c_contiguous
        infected = model.infected(y)
        for col, spec in enumerate(specs):
            alone = policies.DosePlanner([spec], model, SCHEDULE)
            y1 = y[:, col:col + 1].copy()
            single = policies.emit_doses(alone, y1, model.headroom(y1),
                                         supply[:1], budget_left[:1],
                                         everyone[:1], nobody[:1])
            assert np.array_equal(doses[col], single[0]), spec.name
            expected = reference_doses(spec, model, headroom[col],
                                       infected[col], plan, supply[col])
            assert np.array_equal(doses[col], expected), spec.name
        # the static plan is drawn down by what its column emitted
        assert np.array_equal(planner.plans[0],
                              np.maximum(plan - doses[0], 0.0))

    def test_leftover_column_beside_a_dosing_one(self):
        model = pass_models()["age"]
        specs = [sv.PolicySpec("population-weighted"),
                 sv.PolicySpec("infection-weighted"),
                 sv.PolicySpec("seniors-60-plus")]
        y = np.repeat(model.y0[:, None], 3, axis=1)
        headroom = model.headroom(y)
        supply = np.full(3, 1000.0)
        planner = policies.DosePlanner(specs, model, SCHEDULE)
        doses = policies.emit_doses(
            planner, y, headroom, supply, supply, np.array([True, False, False]),
            np.array([False, True, False]))
        assert np.array_equal(doses[0], reference_fill(
            model.populations, headroom[0], 1000.0)[0])
        assert np.array_equal(doses[1], reference_fill(
            np.ones_like(headroom[1]), headroom[1], 1000.0)[0])
        assert not doses[2].any()


class TestDosingGuards:
    def test_more_doses_than_supplied_raises(self, monkeypatch):
        real = policies.emit_doses

        def greedy(planner, y, headroom, supply, *args):
            doses = real(planner, y, headroom, supply, *args)
            doses[1] *= 1.01
            return doses

        monkeypatch.setattr(policies, "emit_doses", greedy)
        inst = sv.synthetic_instance(0, n=5)
        with pytest.raises(RuntimeError, match="more doses than supplied"):
            dynamics.simulate(dynamics.covid_model(inst), [
                sv.PolicySpec("population-weighted"),
                sv.PolicySpec("infection-weighted")], SCHEDULE, 3)

    @pytest.mark.parametrize("name", ["age", "seir"])
    def test_adapters_take_every_column(self, name):
        model = pass_models()[name]
        y = np.repeat(model.y0[:, None], 3, axis=1)
        headroom, active = model.headroom(y), model.active(y)
        assert headroom.shape == (3, len(model.populations))
        assert active.shape == (3,) and np.all(active > 0)
        assert model.infected(y).flags.c_contiguous
        doses = np.zeros_like(headroom)
        doses[1] = 0.5 * headroom[1]
        model.vaccinate(y, doses)
        after = model.headroom(y)
        assert np.array_equal(after[[0, 2]], headroom[[0, 2]])
        assert np.all(after[1] < headroom[1])

    def test_vaccinating_past_the_susceptibles_raises(self):
        model = pass_models()["age"]
        y = np.repeat(model.y0[:, None], 2, axis=1)
        doses = np.zeros((2, len(model.populations)))
        doses[1] = 1.01 * model.headroom(y)[1]
        with pytest.raises(ValueError, match="v_i <= s_i"):
            model.vaccinate(y, doses)


class TestDosingDays:
    def test_daily_resolve_calls_emit_doses_once_per_epoch(self, monkeypatch):
        # the benchmark times an epoch by wrapping the module attribute
        real, calls = policies.emit_doses, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(policies, "emit_doses", counted)
        inst = sv.synthetic_instance(0, n=5)
        specs = [sv.PolicySpec("optimal-stabilizing",
                               resolve_mode="daily-resolve"),
                 sv.PolicySpec("population-weighted")]
        dynamics.simulate(dynamics.covid_model(inst), specs, SCHEDULE, 4)
        assert len(calls) == 4

    def test_one_column_on_the_leftover_rule_while_others_dose(self):
        # Rt 0.5: the static optimal column's active infections fall below
        # EXTINCTION_THRESHOLD on day 115, the other two on days 117 and 118
        inst = sv.synthetic_instance(0, n=3, target_rt=0.5)
        pops = inst.cell_populations()
        specs = [sv.PolicySpec(kind) for kind in (
            "optimal-stabilizing", "population-weighted", "infection-weighted")]
        none, even = (dynamics.simulate(
            dynamics.covid_model(inst), specs,
            sv.VaccinationSchedule(daily_rate=0.001, total_budget=0.3,
                                   leftover_rule=rule), 200)
            for rule in ("none", "even-split"))
        stops = [int(np.argmax(((t.xa + t.xs) * pops).sum(axis=1)
                               < dynamics.EXTINCTION_THRESHOLD)) for t in none]
        assert stops == [115, 117, 118]
        static = none[0].doses.sum(axis=1)
        assert np.all(static[115:] == static[114])
        for traj in none[1:]:
            assert np.all(np.diff(traj.doses.sum(axis=1))[114:116] > 0)
        # until their own extinction, the leftover rule of one column
        # leaves the others' bits alone
        for a, b, stop in zip(none[1:], even[1:], stops[1:]):
            assert np.array_equal(a.doses[:stop], b.doses[:stop])
            assert np.array_equal(a.s[:stop], b.s[:stop])
        assert even[0].doses[115].sum() - even[0].doses[114].sum() == \
            pytest.approx(0.001 * pops.sum(), rel=1e-12)
