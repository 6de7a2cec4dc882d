"""Data ingestion and parameter derivation: mobility and case files,
age-specific fatality and rate derivations, named presets, and synthetic
instance generation for desk-scale experiments.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .model import (ContactStructure, DiseaseParams, EpidemicState,
                    NetworkInstance, calibrate_transmission)

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
# by the default parameter set. The periods are the canonical pipeline's, not
# the medians of the printed table of literature estimates, which are (5.05,
# 6.2).
DEFAULT_ASYMPTOMATIC_PERIOD = 5.0025
DEFAULT_SYMPTOMATIC_PERIOD = 6.2475
DEFAULT_MEAN_IFR = 0.0242

DEFAULT_EFFICACY = 0.95

AGE_GROUP_RANGES = ((0, 4), (5, 19), (20, 29), (30, 44), (45, 64), (65, 89))

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
# derivations
# ---------------------------------------------------------------------------

def build_travel_rates(trips, dwell_minutes) -> np.ndarray:
    """tau[i, j] = (1 - W_i/1440) * k_ij / sum_a k_ia from the daily trip
    counts k and the median home-dwell minutes W per location.

    Raises IngestError on a negative trip count or dwell minutes outside
    [0, 1440]; a location with no outbound trips is isolated (zero row).
    """
    trips = np.asarray(trips, dtype=float)
    dwell_minutes = np.asarray(dwell_minutes, dtype=float)
    if np.any(trips < 0):
        raise IngestError("trip counts must be nonnegative")
    if np.any(dwell_minutes < 0) or np.any(dwell_minutes > MINUTES_PER_DAY):
        raise IngestError("dwell minutes must lie in [0, 1440]")
    totals = trips.sum(axis=1)
    isolated = totals == 0
    if np.any(isolated):
        warnings.warn(f"{int(isolated.sum())} location(s) have no trips; "
                      "treating them as isolated", stacklevel=2)
    away = 1.0 - dwell_minutes / MINUTES_PER_DAY
    safe_totals = np.where(isolated, 1.0, totals)
    tau = away[:, None] * trips / safe_totals[:, None]
    tau[isolated, :] = 0.0
    return tau


def derive_initial_state(confirmed, deaths, populations) -> EpidemicState:
    """Initial fractions from cumulative confirmed cases and deaths.

    True infections are confirmed / REPORTING_FACTOR; the recovered share of
    surviving ever-infected follows the national ratio; active cases split
    81/19 into the asymptomatic and symptomatic tracks. Raises IngestError
    on a negative case count, on deaths above the true infections, or on
    true infections above the population.
    """
    confirmed = np.asarray(confirmed, dtype=float)
    deaths = np.asarray(deaths, dtype=float)
    if np.any(confirmed < 0) or np.any(deaths < 0):
        raise IngestError("case counts must be nonnegative")
    true_cases = confirmed / REPORTING_FACTOR
    if np.any(deaths > true_cases + 1e-9):
        raise IngestError("deaths exceed implied true infections")
    populations = np.asarray(populations, dtype=float)
    if np.any(true_cases > populations):
        raise IngestError("implied infections exceed population")
    recovered = (true_cases - deaths) * RECOVERED_RATIO
    active = true_cases - deaths - recovered
    state = EpidemicState(
        s=1.0 - true_cases / populations,
        xa=SYMPTOMATIC_SHARE * active / populations,
        xs=(1.0 - SYMPTOMATIC_SHARE) * active / populations,
        e=deaths / populations,
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


def derive_disease_params(d_a: float, d_s: float, ifr_avg):
    """Invert the four rate relations into (eps, r_a, r_s, kappa), with
    share = SYMPTOMATIC_SHARE.

        eps + r_a = 1/d_a          eps / (eps + r_a) = (1 - share) / share
        r_s + kappa = 1/d_s        (1 - share)/share * kappa/(kappa + r_s) = IFR

    ifr_avg may be a vector, in which case r_s and kappa come back as
    vectors (eps and r_a stay scalar).
    """
    if d_a <= 0 or d_s <= 0:
        raise IngestError("infectious periods must be positive")
    ifr_avg = np.asarray(ifr_avg, dtype=float)
    progression_ratio = (1.0 - SYMPTOMATIC_SHARE) / SYMPTOMATIC_SHARE
    eps = progression_ratio / d_a
    r_a = 1.0 / d_a - eps
    kappa = ifr_avg / progression_ratio / d_s
    r_s = 1.0 / d_s - kappa
    if np.any(r_s < 0):
        raise IngestError("inputs inconsistent: implied recovery rate negative")
    if ifr_avg.ndim == 0:
        return eps, r_a, float(r_s), float(kappa)
    return eps, r_a, r_s, kappa


def default_disease_params(psi: float = DEFAULT_EFFICACY,
                           alpha_hat: float = 0.5,
                           demographic: bool = False) -> DiseaseParams:
    """Uncalibrated parameter template built from the canonical derivations,
    its transmission scalar 1."""
    eps, r_a, r_s, kappa = derive_disease_params(
        DEFAULT_ASYMPTOMATIC_PERIOD, DEFAULT_SYMPTOMATIC_PERIOD, DEFAULT_MEAN_IFR)
    if demographic:
        return DiseaseParams(eps=eps, r_a=r_a, r_s=R_S_BY_GROUP.copy(),
                             kappa=KAPPA_BY_GROUP.copy(), psi=psi,
                             beta=1.0, beta0=NY_BETA0.copy(),
                             alpha_hat=alpha_hat)
    return DiseaseParams(eps=eps, r_a=r_a, r_s=r_s, kappa=kappa, psi=psi,
                         beta_s=1.0, alpha_hat=alpha_hat)


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

    def cell_populations(self) -> np.ndarray:
        return self.net.cell_populations()

    def cell_labels(self) -> list[str]:
        n, g = self.net.n, self.net.n_groups
        if not self.params.is_demographic:
            return [f"loc{i}" for i in range(n)]
        return [f"loc{i}:g{b}" for i in range(n) for b in range(g)]


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
    state = derive_initial_state(confirmed, deaths, populations)

    contacts = None
    group_pop = None
    if groups:
        contacts = ny_contact_structure()
        shares = NY_GROUP_SHARES * rng.uniform(0.85, 1.15, size=(n, 6))
        shares /= shares.sum(axis=1, keepdims=True)
        group_pop = shares * populations[:, None]
        # each group of a location starts in its location's state
        state = EpidemicState(*np.repeat(state.compartments(), 6, axis=1))
    net = NetworkInstance(tau=tau, populations=populations,
                          group_populations=group_pop)
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


def two_node_case(case: int) -> EpidemicInstance:
    """One of the four two-location benchmark scenarios, calibrated to
    TWO_NODE_TARGET_RT from the default parameter template."""
    if case not in TWO_NODE_CASES:
        raise IngestError(f"unknown two-node case {case}")
    populations, dwell, s0 = TWO_NODE_CASES[case]
    tau = build_travel_rates(TWO_NODE_TRIPS, dwell)
    net = NetworkInstance(tau=tau, populations=populations, dwell_minutes=dwell)
    ever = 1.0 - s0
    recovered = ever * RECOVERED_RATIO
    active = ever - recovered
    state = EpidemicState(s=s0, xa=SYMPTOMATIC_SHARE * active,
                          xs=(1 - SYMPTOMATIC_SHARE) * active,
                          e=np.zeros(2), h=recovered)
    state.validate()
    params = calibrate_transmission(net, default_disease_params(), state,
                                    TWO_NODE_TARGET_RT)
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

    tau = build_travel_rates(trips, dwell)
    net = NetworkInstance(tau=tau, populations=populations, dwell_minutes=dwell)
    state = derive_initial_state(confirmed, deaths, populations)
    return net, state


# the sections of an instance file, one per EpidemicInstance field in order;
# only contacts may be absent
SECTIONS = (("network", NetworkInstance), ("params", DiseaseParams),
            ("state0", EpidemicState), ("contacts", ContactStructure))


def instance_to_dict(inst: EpidemicInstance) -> dict:
    """The "model" key, then a section per record: its fields in declaration
    order as plain lists and numbers, None values left out."""
    doc = {"model": ("covid-demographic" if inst.params.is_demographic
                     else "covid")}
    for (section, _), f in zip(SECTIONS, fields(inst)):
        record = getattr(inst, f.name)
        if record is not None:
            values = ((k.name, getattr(record, k.name)) for k in fields(record))
            doc[section] = {name: np.asarray(value).tolist()
                            for name, value in values if value is not None}
    return doc


def instance_from_dict(doc: dict) -> EpidemicInstance:
    """Each record built from its section's fields, the records' own checks
    applied; raises IngestError on a missing section or field, an unknown
    field, a section that is no JSON object, a ragged list, a number that is
    not finite, from a record's own checks (naming its section), from
    `_check_sizes` and from `EpidemicState.validate` of state0."""
    for section, values in (doc.items() if isinstance(doc, dict) else ()):
        for name, value in (values.items() if isinstance(values, dict) else ()):
            try:
                kind = np.asarray(value).dtype.kind
            except ValueError as exc:  # a ragged list
                raise IngestError(f"instance file section {section}: {name} "
                                  "is not a regular array") from exc
            if kind == "f" and not np.isfinite(value).all():
                raise IngestError(f"instance file section {section}: {name} "
                                  "must be finite")
    records = []
    try:
        for section, cls in SECTIONS:
            records.append(cls(**doc[section]) if section in doc
                           or section != "contacts" else None)
    except KeyError as exc:
        raise IngestError(f"instance file lacks section {exc}") from exc
    except TypeError as exc:
        raise IngestError(f"malformed instance file: {exc}") from exc
    except ValueError as exc:
        raise IngestError(f"instance file section {section}: {exc}") from exc
    inst = EpidemicInstance(*records)
    _check_sizes(inst)
    try:
        inst.state0.validate()
    except ValueError as exc:
        raise IngestError(f"instance file section state0: {exc}") from exc
    return inst


def _check_sizes(inst: EpidemicInstance) -> None:
    """Raise IngestError naming the section and field of the first record
    that disagrees with the network: a state0 field not of one entry per
    cell, an age model's r_s, kappa or beta0 neither one number nor one
    entry per age group or its contacts not g x g, or contacts under
    homogeneous params, which read none."""
    cells, g = inst.net.cell_populations().size, inst.net.n_groups
    found = [(f"state0: {f.name}", np.shape(getattr(inst.state0, f.name)),
              (cells,)) for f in fields(inst.state0)]
    if inst.params.is_demographic:
        found += [(f"params: {name}", np.shape(getattr(inst.params, name))
                   or (g,), (g,)) for name in ("r_s", "kappa", "beta0")]
        if inst.contacts is not None:
            found.append(("contacts: contacts", inst.contacts.contacts.shape,
                          (g, g)))
    elif inst.contacts is not None:
        raise IngestError("instance file section contacts has no effect "
                          "with homogeneous params")
    for where, shape, expected in found:
        if shape != expected:
            raise IngestError(f"instance file section {where} has shape "
                              f"{shape}, but the network implies {expected}")


def write_atomic(path, data, bound: int = 0) -> None:
    """Write data, a text, bytes or an iterable of byte blocks written as
    they come, to path through a temporary file in its directory, renamed
    into place, with the mode a plain open gives; a write that fails leaves
    the old file and no temporary one.

    Bytes are preallocated where the platform can, blocks by `bound`, an
    upper bound on their bytes, and the file is then cut to what was
    written: ext4 then has no delayed blocks to flush when the rename
    replaces a file. Writing a 1.4 MB trajectory over an old one took
    0.78 ms so, 1.96 ms without, and 1.60 ms by a plain truncating open (one
    CPU of a 2-vCPU Xeon, medians of 21 rounds of four files)."""
    path, text = Path(path), isinstance(data, str)
    whole = text or isinstance(data, bytes)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(fd, "w" if text else "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            size = len(data) if whole else bound
            if not text and size and hasattr(os, "posix_fallocate"):
                try:
                    os.posix_fallocate(fd, 0, size)
                except OSError:  # a file system without it
                    pass
            for block in (data,) if whole else data:
                fh.write(block)
            if not whole:
                fh.truncate()
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_instance(inst: EpidemicInstance, path) -> None:
    write_atomic(path, json.dumps(instance_to_dict(inst), indent=2))


def load_instance(path) -> EpidemicInstance:
    return instance_from_dict(json.loads(Path(path).read_text()))

