"""Dosing policies: convert an epoch's vaccine supply into per-cell dose
vectors during simulation, on any model `dynamics.simulate` runs.

`emit_doses` reads a model only through its `dynamics.SimulationModel`
adapter, so a `PolicySpec` means the same on every model. Static optimal
dosing pro-rates the model's certified allocation of the whole budget at its
initial state; daily-resolve re-solves it on each epoch's state.

The age strategies of Bubar et al. (Science 371, 2021) are the `AGE_BANDS`
kinds, on every model. This module imports no other module of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
    together. No group may be named twice: `_priority_fill` would dose it
    once per mention. Only age-priority reads priority_groups and only
    optimal-stabilizing reads resolve_mode, so either on another kind
    raises."""

    kind: str
    resolve_mode: str = "static"
    priority_groups: tuple = ()

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
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
                      amount: float) -> np.ndarray:
    """Distribute amount proportionally to weights, water-filling against the
    per-cell caps: saturated cells keep their cap and the residual is
    re-split among the rest."""
    weights = np.maximum(np.asarray(weights, dtype=float), 0.0)
    caps = np.maximum(np.asarray(caps, dtype=float), 0.0)
    doses = np.zeros_like(caps)
    remaining = min(float(amount), float(caps.sum()))
    active = (weights > 0) & (caps > 0)
    while remaining > 1e-12 and active.any():
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
    return doses


def _named(priority_groups: Sequence) -> list[int]:
    """Every group index a priority list names, in order. Raises ValueError
    unless each entry is an int or a list or tuple of ints (not bools)."""
    named = [g for tier in priority_groups for g in (
        tier if isinstance(tier, (list, tuple)) else (tier,))]
    if any(isinstance(g, bool) or not isinstance(g, (int, np.integer))
           for g in named):
        raise ValueError(f"priority_groups {list(priority_groups)} must hold "
                         "group indices or lists of them")
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


def _priority_fill(priority_groups: Sequence, headroom: np.ndarray,
                   amount: float, n_groups: int) -> np.ndarray:
    """Fill tiers in order, splitting within a tier proportionally to headroom.

    An entry may be a single group index or a tuple of indices dosed together;
    cell c belongs to group c % n_groups.
    """
    doses = np.zeros_like(headroom)
    left = float(amount)
    for tier in priority_groups:
        if left <= 1e-12:
            break
        groups = np.atleast_1d(np.asarray(tier, dtype=int))
        idx = np.concatenate([np.arange(g, headroom.size, n_groups)
                              for g in groups])
        filled = proportional_fill(headroom[idx], headroom[idx], left)
        doses[idx] += filled
        left -= float(filled.sum())
    return doses


def emit_doses(policy: PolicySpec, state, model, epoch_supply: float,
               remaining_budget: float,
               plan_remaining: Optional[np.ndarray] = None) -> np.ndarray:
    """Dose vector (persons per cell) for one supply epoch of a model's state.

    The emitted total never exceeds min(epoch supply, remaining budget,
    susceptible headroom). Static optimal dosing pro-rates a precomputed
    plan (passed as plan_remaining); daily-resolve re-solves the allocation
    problem on the current state and fills the highest allocation fractions
    first.
    """
    if epoch_supply < 0:
        raise ValueError("epoch supply must be nonnegative")
    headroom = model.headroom(state)
    amount = min(epoch_supply, remaining_budget)
    if amount <= 0 or policy.kind == "no-vaccine":
        return np.zeros_like(headroom)

    if policy.kind == "population-weighted":
        return proportional_fill(model.populations, headroom, amount)

    if policy.kind == "infection-weighted":
        cumulative = model.infected(state)
        if cumulative.sum() <= 0:
            cumulative = headroom
        return proportional_fill(cumulative, headroom, amount)

    if policy.kind == "age-priority" or policy.kind in AGE_BANDS:
        return _priority_fill(priority_tiers(policy, model), headroom, amount,
                              model.n_groups)

    # optimal-stabilizing
    if policy.resolve_mode == "static":
        if plan_remaining is None:
            raise ValueError("static optimal dosing needs the precomputed plan")
        caps = np.minimum(headroom, np.maximum(plan_remaining, 0.0))
        if caps.sum() <= 1e-12:  # caps >= 0: proportional_fill gives zeros
            return np.zeros_like(headroom)
        return proportional_fill(np.maximum(plan_remaining, 0.0), caps, amount)

    result = model.allocate(state, remaining_budget)
    targets = np.minimum(result.dose_vector, headroom)
    doses = np.zeros_like(headroom)
    left = amount
    for idx in np.argsort(-result.v):
        if left <= 1e-12:
            break
        give = min(targets[idx], left)
        doses[idx] = give
        left -= give
    return doses


class DosePlanner:
    """Per-simulation wrapper around emit_doses that owns the static plan:
    the model's allocation of the whole budget at its initial state, drawn
    down by the doses each epoch emits. Raises ValueError if an age policy
    names a group the model lacks or an age band holds none. Doses the plan
    keeps for cells with no susceptibles left wait unspent: 420 of 15,859
    (2.6%) until extinction on homogeneous n=5 instance 0, 5% budget."""

    def __init__(self, policy: PolicySpec, model, schedule) -> None:
        self.policy = policy
        self.model = model
        self.plan_remaining: Optional[np.ndarray] = None
        # only an age policy has tiers
        outside = [g for g in _named(priority_tiers(policy, model))
                   if not 0 <= g < model.n_groups]
        if outside:
            raise ValueError(f"priority groups {outside} lie outside "
                             f"[0, {model.n_groups}), the model's groups")
        # without a budget, emit_doses returns before it reads a plan
        if policy.kind == "optimal-stabilizing" and \
                policy.resolve_mode == "static" and schedule.total_budget > 0:
            budget = schedule.total_budget * float(model.populations.sum())
            self.plan_remaining = model.allocate(
                model.state(model.y0), budget).dose_vector.copy()

    def epoch_doses(self, state, epoch_supply: float,
                    remaining_budget: float) -> np.ndarray:
        doses = emit_doses(self.policy, state, self.model, epoch_supply,
                           remaining_budget, plan_remaining=self.plan_remaining)
        if self.plan_remaining is not None:
            self.plan_remaining = np.maximum(self.plan_remaining - doses, 0.0)
        return doses
