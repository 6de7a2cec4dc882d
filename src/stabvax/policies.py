"""Dosing policies: convert an epoch's vaccine supply into per-cell doses
for every policy column `dynamics.simulate` runs, on any model, in one pass.

`emit_doses` reads a model only through its `dynamics.SimulationModel`
adapter, so a `PolicySpec` means the same on every model. Static optimal
dosing pro-rates the model's certified allocation of the whole budget at its
initial state; daily-resolve re-solves it on each epoch's state.

The age strategies of Bubar et al. (Science 371, 2021) are the `AGE_BANDS`
kinds, on every model. This module imports no other module of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# (youngest, oldest) age in years, None for no bound, of each preset age
# strategy; only the seniors band is anchored upstream, the rest are
# conventional splits
AGE_BANDS = {"under-20": (0, 19), "adults-20-49": (20, 49),
             "adults-20-plus": (20, None), "seniors-60-plus": (60, None),
             "all-ages": (0, None)}
POLICY_KINDS = ("optimal-stabilizing", "population-weighted",
                "infection-weighted", "no-vaccine", "age-priority", *AGE_BANDS)


@dataclass(frozen=True)
class PolicySpec:
    """A dosing policy. priority_groups orders the groups an age-priority
    policy doses; an entry is a group index or a tuple of indices dosed
    together. No tier may be empty and no group named twice: `emit_doses`
    fills each tier once, in order. Only age-priority reads priority_groups
    and only optimal-stabilizing reads resolve_mode, so either on another
    kind raises."""

    kind: str
    resolve_mode: str = "static"
    priority_groups: tuple = ()

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; the kinds "
                             f"are {', '.join(POLICY_KINDS)}")
        if self.resolve_mode not in ("static", "daily-resolve"):
            raise ValueError("resolve_mode must be 'static' or 'daily-resolve'")
        if self.kind == "age-priority" and not self.priority_groups:
            raise ValueError("age-priority policy needs a nonempty priority list")
        if self.kind != "age-priority" and self.priority_groups:
            raise ValueError(f"a {self.kind} policy takes no priority_groups")
        if self.resolve_mode != "static" and self.kind != "optimal-stabilizing":
            raise ValueError(f"a {self.kind} policy takes no resolve_mode")
        named = _named(self.priority_groups)
        if len(set(named)) < len(named):
            raise ValueError(f"priority list {list(self.priority_groups)} "
                             "names a group more than once")

    @property
    def name(self) -> str:
        if self.kind == "optimal-stabilizing" and self.resolve_mode == "daily-resolve":
            return "optimal-daily"
        return self.kind


def proportional_fill(weights: np.ndarray, caps: np.ndarray,
                      amounts) -> np.ndarray:
    """Distribute each row's amount proportionally to its weights,
    water-filling against its per-cell caps: saturated cells keep their cap
    and the residual is re-split among the rest. weights and caps are
    C-ordered (rows, cells), amounts one per row. Every sum reduces one row,
    whole or compressed, so a row gets the bits it would get alone."""
    weights, caps = np.maximum(weights, 0.0), np.maximum(caps, 0.0)
    limit, doses = caps - 1e-15, np.zeros(caps.shape)  # room of a live cell
    remaining = np.minimum(amounts, caps.sum(axis=1))
    active = (weights > 0) & (caps > 0) & (remaining > 1e-12)[:, None]
    live = active.any(axis=1)
    while live.any():
        share = np.where(active, weights, 0.0)  # a dead row gets 0 / 1
        alloc = remaining[:, None] * share / np.where(
            live, share.sum(axis=1), 1.0)[:, None]
        overflow = active & (alloc >= limit)
        spill = overflow.any(axis=1)
        if not spill.any():
            doses += alloc
            break
        np.add(doses, alloc, out=doses, where=~spill[:, None])
        for row in spill.nonzero()[0]:
            remaining[row] -= caps[row, overflow[row]].sum()
        np.copyto(doses, caps, where=overflow)
        active &= ~overflow & (spill & (remaining > 1e-12))[:, None]
        live = active.any(axis=1)
    return doses


def _named(priority_groups: Sequence) -> list[int]:
    """Every group index a priority list names, in order, None for an empty
    tier. Raises ValueError unless each is an int (not a bool)."""
    named = [g for tier in priority_groups for g in (
        tier or [None] if isinstance(tier, (list, tuple)) else (tier,))]
    if any(isinstance(g, bool) or not isinstance(g, (int, np.integer))
           for g in named):
        raise ValueError(f"priority_groups {list(priority_groups)} must hold "
                         "group indices or nonempty lists of them")
    return named


def priority_tiers(policy: PolicySpec, model) -> tuple:
    """The tiers an age policy doses in order: its priority list, or as one
    tier the groups whose model.age_ranges lie inside its age band; () for
    other kinds. Raises ValueError if a band holds no group."""
    if policy.kind not in AGE_BANDS:
        return policy.priority_groups
    lo, hi = AGE_BANDS[policy.kind]
    groups = tuple(g for g, (young, old) in enumerate(model.age_ranges)
                   if lo <= young and (hi is None or old <= hi))
    if not groups:
        raise ValueError(f"age band {policy.kind!r} holds none of the model's "
                         f"age groups {list(model.age_ranges)}")
    return (groups,)


def emit_doses(planner: "DosePlanner", y: np.ndarray, headroom: np.ndarray,
               supply: np.ndarray, budget_left: np.ndarray,
               planned: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Doses (persons per cell) of one supply epoch for every column of the
    state array y, a C-ordered (K, cells) array: a column in planned doses
    by its policy, one in spread splits its supply evenly under headroom
    (the leftover rule), any other gets none. headroom is model.headroom(y).
    The water-fills run as one `proportional_fill` per row length and
    round, an age policy's later tiers in later rounds while more than 1e-12
    of its supply is left; a daily-resolve column re-solves the allocation
    on its current state. A planned static plan is drawn down by its doses;
    one with at most 1e-12 doses under headroom gets none and is marked in
    planner.spent."""
    model, doses = planner.model, np.zeros(headroom.shape)
    batches: dict = {}  # row length -> (column, cells, weights, caps, amount)
    later: dict = {}  # age column -> the tiers it has yet to fill
    for k in (planned | spread).nonzero()[0].tolist():
        name, tiers = planner.names[k], planner.tiers[k]
        h, cells = headroom[k], slice(None)
        if spread[k]:
            weights, caps = np.ones_like(h), h
        elif name == "population-weighted":
            weights, caps = model.populations, h
        elif name == "infection-weighted":
            infected = model.infected(y)[k]
            weights, caps = (infected if infected.sum() > 0 else h), h
        elif name == "optimal-stabilizing":
            weights = planner.plans[k]
            caps = np.minimum(h, weights)
            if caps.sum() <= 1e-12:  # the fill would give the same zeros
                planner.spent[k] = True
                continue
        elif name == "optimal-daily":  # highest allocation fraction first
            result = model.allocate(y[:, k], budget_left[k])
            targets, left = np.minimum(result.dose_vector, h), supply[k]
            for idx in np.argsort(-result.v):
                if left <= 1e-12:
                    break
                doses[k, idx] = give = min(targets[idx], left)
                left -= give
            continue
        elif tiers:  # an age policy
            cells, *later[k] = tiers
            weights = caps = h[cells]
        else:  # no-vaccine
            continue
        batches.setdefault(len(caps), []).append(
            (k, cells, weights, caps, supply[k]))
    while batches:
        rounds, batches = batches.values(), {}
        for rows in rounds:
            ks, cells, weights, caps, amounts = zip(*rows)
            filled = proportional_fill(np.array(weights), np.array(caps),
                                       amounts)
            for k, at, row, amount in zip(ks, cells, filled, amounts):
                doses[k, at] = row
                if later.get(k) and (left := amount - row.sum()) > 1e-12:
                    at = later[k].pop(0)
                    batches.setdefault(len(at), []).append(
                        (k, at, headroom[k, at], headroom[k, at], left))
    drawn = planned & planner.static
    planner.plans[drawn] = np.maximum(planner.plans[drawn] - doses[drawn], 0.0)
    return doses


class DosePlanner:
    """The policies of one simulation, one per column, resolved against the
    model once: age tiers as cell index arrays, static optimal plans as one
    (K, cells) array allocated from the initial column. spent marks the
    static columns with no plan left under headroom; neither grows, so only
    the leftover rule doses them again. Raises ValueError if an age policy
    names a group the model lacks or an age band holds none. Doses the plan
    keeps for cells with no susceptibles left wait unspent: 420 of 15,859
    (2.6%) until extinction on homogeneous n=5 instance 0, 5% budget."""

    def __init__(self, policies: Sequence[PolicySpec], model,
                 schedule) -> None:
        self.model, self.names = model, [policy.name for policy in policies]
        cells, groups = len(model.populations), model.n_groups
        self.tiers = []
        for policy in policies:
            tiers = priority_tiers(policy, model)  # only an age policy has any
            outside = [g for g in _named(tiers) if not 0 <= g < groups]
            if outside:
                raise ValueError(f"priority groups {outside} lie outside "
                                 f"[0, {groups}), the model's groups")
            self.tiers.append([np.concatenate([
                np.arange(g, cells, groups) for g in np.atleast_1d(tier)])
                for tier in tiers])
        self.static = np.array([name == "optimal-stabilizing"
                                for name in self.names], dtype=bool)
        self.plans = np.zeros((len(self.names), cells))
        self.spent = np.zeros(len(self.names), dtype=bool)
        if self.static.any() and schedule.total_budget > 0:
            budget = schedule.total_budget * float(model.populations.sum())
            plan = model.allocate(model.y0, budget).dose_vector
            self.plans[self.static] = np.maximum(plan, 0.0)
