"""Data ingestion and parameter derivation: mobility and case files,
age-specific fatality and rate derivations, named presets, and synthetic
instance generation for desk-scale experiments.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .model import (ContactStructure, DiseaseParams, EpidemicState,
                    NetworkInstance, calibrate_transmission,
                    intrinsic_connectivity)

MINUTES_PER_DAY = 1440.0

# Ratio of confirmed to true infections used to inflate case counts.
REPORTING_FACTOR = 0.217

# National recovered / (cumulative - deaths) split applied to local counts.
NATIONAL_RECOVERED = 8333018
NATIONAL_DEATHS = 276976
NATIONAL_CUMULATIVE = 14108490
RECOVERED_RATIO = NATIONAL_RECOVERED / (NATIONAL_CUMULATIVE - NATIONAL_DEATHS)

# Share of patients developing mild-to-moderate (asymptomatic-track) illness.
SYMPTOMATIC_SHARE = 0.81

# Canonical infectious periods (days) and population-average fatality used
# by the default parameter set.
DEFAULT_ASYMPTOMATIC_PERIOD = 5.0025
DEFAULT_SYMPTOMATIC_PERIOD = 6.2475
DEFAULT_MEAN_IFR = 0.0242

DEFAULT_EFFICACY = 0.95

AGE_GROUPS = ("0-4", "5-19", "20-29", "30-44", "45-64", "65+")
AGE_GROUP_RANGES = ((0, 4), (5, 19), (20, 29), (30, 44), (45, 64), (65, 89))

# Reported per-period (asymptomatic, symptomatic) literature estimates.
INFECTIOUS_PERIOD_TABLE = np.array([
    [1 / 0.29, 1 / 0.29],
    [1 / 0.0034, 1 / 0.017],
    [5.0, 5.0],
    [3.0, 5.0],
    [5.1, 7.4],
    [10.0, 15.0],
])

# Six-group intrinsic connectivity matrix for New York State.
NY_GAMMA = np.array([
    [22.9768, 15.3439, 9.1141, 11.3077, 4.5509, 3.2704],
    [15.3439, 54.2639, 9.7226, 11.5955, 8.6947, 3.9597],
    [9.1141, 9.7226, 28.8528, 14.7380, 13.7316, 5.1510],
    [11.3077, 11.5955, 14.7380, 18.0776, 12.9846, 5.4702],
    [4.5509, 8.6947, 13.7316, 12.9846, 15.6485, 6.3227],
    [3.2704, 3.9597, 5.1510, 5.4702, 6.3227, 15.2828],
])

# Census-like NY age composition used by fixtures (shares of total).
NY_GROUP_SHARES = np.array([0.061, 0.192, 0.144, 0.202, 0.264, 0.137])
NY_TOTAL_POPULATION = 19_378_102.0

# Per-group susceptibility-to-transmission weights.
NY_BETA0 = np.array([0.400, 0.387, 0.790, 0.840, 0.830, 0.768])

# Per-group mortality and symptomatic recovery rates (1/day), from the
# age-fatality regression with the canonical symptomatic period.
KAPPA_BY_GROUP = np.array([0.0000047, 0.000018, 0.000075, 0.00036, 0.0033, 0.0565])
R_S_BY_GROUP = np.array([0.1601, 0.1600, 0.1600, 0.1597, 0.1568, 0.1035])


class IngestError(ValueError):
    pass


# ---------------------------------------------------------------------------
# raw inputs
# ---------------------------------------------------------------------------

@dataclass
class RawMobility:
    """Daily trip counts and median home-dwell minutes per location."""

    trips: np.ndarray
    dwell_minutes: np.ndarray

    def __post_init__(self):
        self.trips = np.asarray(self.trips, dtype=float)
        self.dwell_minutes = np.asarray(self.dwell_minutes, dtype=float)
        if np.any(self.trips < 0):
            raise IngestError("trip counts must be nonnegative")
        if np.any(self.dwell_minutes < 0) or np.any(self.dwell_minutes > MINUTES_PER_DAY):
            raise IngestError("dwell minutes must lie in [0, 1440]")


@dataclass
class RawCases:
    """Cumulative confirmed cases and deaths per location."""

    confirmed: np.ndarray
    deaths: np.ndarray
    reporting_factor: float = REPORTING_FACTOR
    recovered_ratio: float = RECOVERED_RATIO

    def __post_init__(self):
        self.confirmed = np.asarray(self.confirmed, dtype=float)
        self.deaths = np.asarray(self.deaths, dtype=float)
        if np.any(self.confirmed < 0) or np.any(self.deaths < 0):
            raise IngestError("case counts must be nonnegative")
        if np.any(self.deaths > self.confirmed / self.reporting_factor + 1e-9):
            raise IngestError("deaths exceed implied true infections")


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def build_travel_rates(raw: RawMobility) -> np.ndarray:
    """tau[i, j] = (1 - W_i/1440) * k_ij / sum_a k_ia.

    Locations with no outbound trips are treated as isolated (zero row).
    """
    totals = raw.trips.sum(axis=1)
    isolated = totals == 0
    if np.any(isolated):
        warnings.warn(f"{int(isolated.sum())} location(s) have no trips; "
                      "treating them as isolated", stacklevel=2)
    away = 1.0 - raw.dwell_minutes / MINUTES_PER_DAY
    safe_totals = np.where(isolated, 1.0, totals)
    tau = away[:, None] * raw.trips / safe_totals[:, None]
    tau[isolated, :] = 0.0
    return tau


def derive_initial_state(raw: RawCases, populations: np.ndarray) -> EpidemicState:
    """Initial compartment fractions from cumulative counts.

    True infections are confirmed / reporting_factor; the recovered share of
    surviving ever-infected follows the national ratio; active cases split
    81/19 into the asymptomatic and symptomatic tracks.
    """
    populations = np.asarray(populations, dtype=float)
    true_cases = raw.confirmed / raw.reporting_factor
    if np.any(true_cases > populations):
        raise IngestError("implied infections exceed population")
    recovered = (true_cases - raw.deaths) * raw.recovered_ratio
    active = true_cases - raw.deaths - recovered
    state = EpidemicState(
        s=1.0 - true_cases / populations,
        xa=SYMPTOMATIC_SHARE * active / populations,
        xs=(1.0 - SYMPTOMATIC_SHARE) * active / populations,
        e=raw.deaths / populations,
        h=recovered / populations,
    )
    state.validate()
    return state


def ifr_by_age(age) -> np.ndarray | float:
    """Infection fatality rate at integer age from the log-linear fit.

    The regression yields a percentage, so the result is divided by 100.
    """
    age = np.asarray(age, dtype=float)
    frac = 10.0 ** (-3.27 + 0.0524 * age) / 100.0
    if frac.ndim == 0:
        return float(frac)
    return frac


def mean_ifr(lo: int = 0, hi: int = 89) -> float:
    """Average fatality rate over single-year ages lo..hi inclusive."""
    ages = np.arange(lo, hi + 1)
    return float(ifr_by_age(ages).mean())


def group_ifr(ranges: Sequence[tuple[int, int]] = AGE_GROUP_RANGES) -> np.ndarray:
    return np.array([mean_ifr(lo, hi) for lo, hi in ranges])


def derive_disease_params(d_a: float, d_s: float, ifr_avg,
                          symptomatic_share: float = SYMPTOMATIC_SHARE):
    """Invert the four rate relations into (eps, r_a, r_s, kappa).

        eps + r_a = 1/d_a          eps / (eps + r_a) = (1 - share) / share
        r_s + kappa = 1/d_s        (1 - share)/share * kappa/(kappa + r_s) = IFR

    ifr_avg may be a vector, in which case r_s and kappa come back as
    vectors (eps and r_a stay scalar).
    """
    if d_a <= 0 or d_s <= 0:
        raise IngestError("infectious periods must be positive")
    if not 0 < symptomatic_share < 1:
        raise IngestError("symptomatic share must lie in (0, 1)")
    ifr_avg = np.asarray(ifr_avg, dtype=float)
    progression_ratio = (1.0 - symptomatic_share) / symptomatic_share
    eps = progression_ratio / d_a
    r_a = 1.0 / d_a - eps
    kappa = ifr_avg / progression_ratio / d_s
    r_s = 1.0 / d_s - kappa
    if np.any(r_s < 0):
        raise IngestError("inputs inconsistent: implied recovery rate negative")
    if ifr_avg.ndim == 0:
        return eps, r_a, float(r_s), float(kappa)
    return eps, r_a, r_s, kappa


def median_infectious_periods(table) -> tuple[float, float]:
    """Componentwise medians of a (k, 2) table of (d_a, d_s) estimates."""
    table = np.asarray(table, dtype=float)
    if table.size == 0:
        raise IngestError("empty period table")
    table = table.reshape(-1, 2)
    med = np.median(table, axis=0)
    return float(med[0]), float(med[1])


def aggregate_contact_groups(c_fine: np.ndarray, fine_pop: np.ndarray,
                             group_map: Sequence[int]) -> np.ndarray:
    """Population-weighted aggregation of a fine contact matrix.

    Row a of the coarse matrix averages the member rows weighted by their
    population shares within a; columns are summed within each target group.
    """
    c_fine = np.asarray(c_fine, dtype=float)
    fine_pop = np.asarray(fine_pop, dtype=float)
    group_map = np.asarray(group_map, dtype=int)
    n_groups = int(group_map.max()) + 1
    coarse = np.zeros((n_groups, n_groups))
    for a in range(n_groups):
        members = np.where(group_map == a)[0]
        if members.size == 0:
            raise IngestError(f"group {a} has no members")
        weights = fine_pop[members] / fine_pop[members].sum()
        row = weights @ c_fine[members, :]
        for b in range(n_groups):
            coarse[a, b] = row[group_map == b].sum()
    return coarse


def default_disease_params(psi: float = DEFAULT_EFFICACY,
                           alpha_hat: float = 0.5,
                           demographic: bool = False,
                           beta_scale: float = 1.0) -> DiseaseParams:
    """Uncalibrated parameter template built from the canonical derivations."""
    eps, r_a, r_s, kappa = derive_disease_params(
        DEFAULT_ASYMPTOMATIC_PERIOD, DEFAULT_SYMPTOMATIC_PERIOD, DEFAULT_MEAN_IFR)
    if demographic:
        return DiseaseParams(eps=eps, r_a=r_a, r_s=R_S_BY_GROUP.copy(),
                             kappa=KAPPA_BY_GROUP.copy(), psi=psi,
                             beta=beta_scale, beta0=NY_BETA0.copy(),
                             alpha_hat=alpha_hat)
    return DiseaseParams(eps=eps, r_a=r_a, r_s=r_s, kappa=kappa, psi=psi,
                         beta_s=beta_scale, alpha_hat=alpha_hat)


def ny_contact_structure() -> ContactStructure:
    """Six-group NY contact structure whose intrinsic connectivity equals the
    published matrix (the raw contact matrix is recovered through the inverse
    rectangular-demography scaling)."""
    pop = NY_GROUP_SHARES * NY_TOTAL_POPULATION
    contacts = NY_GAMMA * (pop / pop.sum())[None, :]
    return ContactStructure(contacts=contacts, reference_pop=pop)


# ---------------------------------------------------------------------------
# instance bundles
# ---------------------------------------------------------------------------

@dataclass
class EpidemicInstance:
    """Calibrated scenario: network, parameters, optional contact structure,
    and an initial state."""

    net: NetworkInstance
    params: DiseaseParams
    state0: EpidemicState
    contacts: Optional[ContactStructure] = None

    @property
    def is_demographic(self) -> bool:
        return self.params.is_demographic

    def cell_populations(self) -> np.ndarray:
        return self.net.cell_populations()


def _expand_to_cells(values: np.ndarray, n_groups: int) -> np.ndarray:
    return np.repeat(values, n_groups) if n_groups else values


def synthetic_instance(seed: int, n: int, groups: bool = False,
                       target_rt: float = 1.2, alpha_hat: float = 0.5,
                       psi: float = DEFAULT_EFFICACY) -> EpidemicInstance:
    """Deterministic pseudo-random calibrated instance.

    Travel-rate rows sum to a value in [0.3, 0.7], populations are
    log-uniform in [1e3, 1e6], and initial infections are drawn so that
    1-15% of each location has ever been infected.
    """
    if n < 1:
        raise IngestError("need at least one location")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 1.0, size=(n, n)) + 2.0 * np.eye(n)
    row_sums = rng.uniform(0.3, 0.7, size=n)
    tau = weights / weights.sum(axis=1, keepdims=True) * row_sums[:, None]
    populations = np.round(10 ** rng.uniform(3, 6, size=n))

    attack = rng.uniform(0.01, 0.15, size=n)
    confirmed = attack * populations * REPORTING_FACTOR
    deaths = attack * populations * rng.uniform(0.002, 0.01, size=n)
    state_loc = derive_initial_state(RawCases(confirmed, deaths), populations)

    contacts = None
    group_pop = None
    if groups:
        contacts = ny_contact_structure()
        shares = NY_GROUP_SHARES * rng.uniform(0.85, 1.15, size=(n, 6))
        shares /= shares.sum(axis=1, keepdims=True)
        group_pop = shares * populations[:, None]
    net = NetworkInstance(tau=tau, populations=populations,
                          group_populations=group_pop)

    g = 6 if groups else 0
    state = EpidemicState(*(_expand_to_cells(getattr(state_loc, name), g)
                            for name in ("s", "xa", "xs", "e", "h")))
    template = default_disease_params(psi=psi, alpha_hat=alpha_hat,
                                      demographic=groups)
    params = calibrate_transmission(net, template, state, target_rt, contacts)
    return EpidemicInstance(net=net, params=params, state0=state,
                            contacts=contacts)


# Two-location benchmark scenarios: (populations, dwell minutes, s(t0)).
TWO_NODE_TRIPS = np.array([[8000.0, 200.0], [200.0, 8000.0]])
TWO_NODE_CASES = {
    1: (np.array([200_000.0, 2_000.0]), np.array([800.0, 800.0]), np.array([0.9, 0.9])),
    2: (np.array([2_000.0, 2_000.0]), np.array([800.0, 800.0]), np.array([0.7, 0.9])),
    3: (np.array([2_000.0, 2_000.0]), np.array([1_000.0, 800.0]), np.array([0.9, 0.9])),
    4: (np.array([200_000.0, 2_000.0]), np.array([1_000.0, 800.0]), np.array([0.7, 0.9])),
}
TWO_NODE_TARGET_RT = 1.0697


def two_node_case(case: int, alpha_hat: float = 0.5,
                  psi: float = DEFAULT_EFFICACY,
                  target_rt: float = TWO_NODE_TARGET_RT) -> EpidemicInstance:
    """One of the four two-location benchmark scenarios, calibrated."""
    if case not in TWO_NODE_CASES:
        raise IngestError(f"unknown two-node case {case}")
    populations, dwell, s0 = TWO_NODE_CASES[case]
    tau = build_travel_rates(RawMobility(TWO_NODE_TRIPS, dwell))
    net = NetworkInstance(tau=tau, populations=populations, dwell_minutes=dwell)
    ever = 1.0 - s0
    recovered = ever * RECOVERED_RATIO
    active = ever - recovered
    state = EpidemicState(s=s0, xa=SYMPTOMATIC_SHARE * active,
                          xs=(1 - SYMPTOMATIC_SHARE) * active,
                          e=np.zeros(2), h=recovered)
    state.validate()
    template = default_disease_params(psi=psi, alpha_hat=alpha_hat)
    params = calibrate_transmission(net, template, state, target_rt)
    return EpidemicInstance(net=net, params=params, state0=state)


# ---------------------------------------------------------------------------
# file IO
# ---------------------------------------------------------------------------

def _read_table(path, required: Sequence[str]) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestError(f"{path}: missing header row")
        missing = set(required) - set(reader.fieldnames)
        if missing:
            raise IngestError(f"{path}: missing columns {sorted(missing)}")
        return list(reader)


def load_instance_from_files(trips_path, dwell_path, cases_path) -> tuple[
        NetworkInstance, EpidemicState]:
    """Assemble a network and initial state from the three CSV inputs.

    Location order follows the cases file. Locations appearing in cases but
    not in trips are isolated (zero travel row) with a warning.
    """
    cases_rows = _read_table(cases_path, ("location_id", "cum_confirmed",
                                          "cum_deaths", "population"))
    ids = [row["location_id"] for row in cases_rows]
    index = {loc: k for k, loc in enumerate(ids)}
    n = len(ids)
    populations = np.array([float(r["population"]) for r in cases_rows])
    confirmed = np.array([float(r["cum_confirmed"]) for r in cases_rows])
    deaths = np.array([float(r["cum_deaths"]) for r in cases_rows])

    dwell = np.full(n, 0.0)
    for row in _read_table(dwell_path, ("location_id", "median_dwell_minutes")):
        if row["location_id"] in index:
            dwell[index[row["location_id"]]] = float(row["median_dwell_minutes"])

    trips = np.zeros((n, n))
    for row in _read_table(trips_path, ("origin_id", "dest_id", "daily_trips")):
        o, d = row["origin_id"], row["dest_id"]
        if o in index and d in index:
            trips[index[o], index[d]] += float(row["daily_trips"])
    missing = [loc for loc in ids if trips[index[loc]].sum() == 0]
    if missing:
        warnings.warn(f"locations without trips treated as isolated: {missing}",
                      stacklevel=2)

    tau = build_travel_rates(RawMobility(trips, dwell))
    net = NetworkInstance(tau=tau, populations=populations, dwell_minutes=dwell)
    state = derive_initial_state(RawCases(confirmed, deaths), populations)
    return net, state


def instance_to_dict(inst: EpidemicInstance) -> dict:
    params = inst.params
    doc = {
        "model": "covid-demographic" if inst.is_demographic else "covid",
        "network": {
            "tau": inst.net.tau.tolist(),
            "populations": inst.net.populations.tolist(),
        },
        "params": {
            "eps": params.eps, "r_a": params.r_a,
            "r_s": np.asarray(params.r_s).tolist(),
            "kappa": np.asarray(params.kappa).tolist(),
            "psi": params.psi,
        },
        "state0": {name: getattr(inst.state0, name).tolist()
                   for name in ("s", "xa", "xs", "e", "h", "vax")},
    }
    if inst.net.dwell_minutes is not None:
        doc["network"]["dwell_minutes"] = inst.net.dwell_minutes.tolist()
    if inst.net.group_populations is not None:
        doc["network"]["group_populations"] = inst.net.group_populations.tolist()
    if inst.is_demographic:
        doc["params"].update({"beta": params.beta,
                              "beta0": params.beta0.tolist(),
                              "alpha_hat": params.alpha_hat})
        doc["contacts"] = {"contacts": inst.contacts.contacts.tolist(),
                           "reference_pop": inst.contacts.reference_pop.tolist()}
    else:
        doc["params"].update({"beta_a": params.beta_a, "beta_s": params.beta_s,
                              "alpha_hat": params.alpha_hat})
    return doc


def instance_from_dict(doc: dict) -> EpidemicInstance:
    netdoc = doc["network"]
    net = NetworkInstance(
        tau=np.asarray(netdoc["tau"], dtype=float),
        populations=np.asarray(netdoc["populations"], dtype=float),
        dwell_minutes=(np.asarray(netdoc["dwell_minutes"], dtype=float)
                       if "dwell_minutes" in netdoc else None),
        group_populations=(np.asarray(netdoc["group_populations"], dtype=float)
                           if "group_populations" in netdoc else None))
    p = doc["params"]
    common = dict(eps=p["eps"], r_a=p["r_a"], psi=p["psi"],
                  r_s=_scalar_or_array(p["r_s"]),
                  kappa=_scalar_or_array(p["kappa"]))
    if doc["model"] == "covid-demographic":
        params = DiseaseParams(beta=p["beta"],
                               beta0=np.asarray(p["beta0"], dtype=float),
                               alpha_hat=p["alpha_hat"], **common)
        cdoc = doc["contacts"]
        contacts = ContactStructure(
            contacts=np.asarray(cdoc["contacts"], dtype=float),
            reference_pop=np.asarray(cdoc["reference_pop"], dtype=float))
    else:
        params = DiseaseParams(beta_a=p["beta_a"], beta_s=p["beta_s"],
                               alpha_hat=p.get("alpha_hat"), **common)
        contacts = None
    sdoc = doc["state0"]
    state = EpidemicState(**{name: np.asarray(sdoc[name], dtype=float)
                             for name in ("s", "xa", "xs", "e", "h", "vax")})
    return EpidemicInstance(net=net, params=params, state0=state,
                            contacts=contacts)


def _scalar_or_array(value):
    if isinstance(value, list):
        return np.asarray(value, dtype=float)
    return float(value)


def save_instance(inst: EpidemicInstance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=2))


def load_instance(path) -> EpidemicInstance:
    return instance_from_dict(json.loads(Path(path).read_text()))


def read_trajectory_csv(path) -> list[dict]:
    """Parse a trajectory export back into typed rows."""
    rows = _read_table(path, ("t", "cell", "s", "xa", "xs", "e", "h",
                              "new_cases", "cum_cases", "cum_deaths", "doses"))
    return [{k: (v if k == "cell" else float(v)) for k, v in row.items()}
            for row in rows]

