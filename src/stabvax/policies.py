"""Dosing policies: convert an epoch's vaccine supply into per-cell dose
vectors during simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import allocator
from .ingest import EpidemicInstance
from .model import EpidemicState

POLICY_KINDS = ("optimal-stabilizing", "population-weighted",
                "infection-weighted", "no-vaccine", "age-priority")


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    resolve_mode: str = "static"
    priority_groups: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.resolve_mode not in ("static", "daily-resolve"):
            raise ValueError("resolve_mode must be 'static' or 'daily-resolve'")
        if self.kind == "age-priority" and not self.priority_groups:
            raise ValueError("age-priority policy needs a nonempty priority list")
        _named_once(self.priority_groups)

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


def leftover_redistribute(state: EpidemicState, remaining_budget: float,
                          rule: str, populations: np.ndarray) -> np.ndarray:
    """Post-extinction dosing: an even split across cells capped by
    susceptible headroom, or nothing under the 'none' rule."""
    if rule == "none" or remaining_budget <= 0:
        return np.zeros_like(state.s)
    headroom = state.s * populations
    return proportional_fill(np.ones_like(headroom), headroom, remaining_budget)


def _group_indices(n_cells: int, n_groups: int, group: int) -> np.ndarray:
    return np.arange(group, n_cells, n_groups)


def _named_once(priority_groups: Sequence) -> Sequence:
    """priority_groups itself; raises ValueError if it names a group more
    than once, which `_priority_fill` would dose once per mention."""
    named = [int(g) for tier in priority_groups for g in np.atleast_1d(tier)]
    if len(set(named)) < len(named):
        raise ValueError(f"priority list {list(priority_groups)} names a "
                         "group more than once")
    return priority_groups


def _priority_fill(priority_groups: Sequence, headroom: np.ndarray,
                   amount: float, n_groups: int) -> np.ndarray:
    """Fill tiers in order, splitting within a tier proportionally to headroom.

    An entry may be a single group index or a tuple of indices dosed together.
    """
    doses = np.zeros_like(headroom)
    left = float(amount)
    for tier in priority_groups:
        if left <= 1e-12:
            break
        groups = np.atleast_1d(np.asarray(tier, dtype=int))
        idx = np.concatenate([_group_indices(headroom.size, n_groups, g)
                              for g in groups])
        filled = proportional_fill(headroom[idx], headroom[idx], left)
        doses[idx] += filled
        left -= float(filled.sum())
    return doses


def emit_doses(policy: PolicySpec, state: EpidemicState,
               instance: EpidemicInstance, epoch_supply: float,
               remaining_budget: float,
               plan_remaining: Optional[np.ndarray] = None) -> np.ndarray:
    """Dose vector (persons per cell) for one supply epoch.

    The emitted total never exceeds min(epoch supply, remaining budget,
    susceptible headroom). Static optimal dosing pro-rates a precomputed
    plan (passed as plan_remaining); daily-resolve re-solves the allocation
    problem on the current state and fills the highest allocation fractions
    first.
    """
    if epoch_supply < 0:
        raise ValueError("epoch supply must be nonnegative")
    pops = instance.cell_populations()
    headroom = state.s * pops
    amount = min(epoch_supply, remaining_budget)
    if amount <= 0 or policy.kind == "no-vaccine":
        return np.zeros_like(headroom)

    if policy.kind == "population-weighted":
        return proportional_fill(pops, headroom, amount)

    if policy.kind == "infection-weighted":
        cumulative = (state.xa + state.xs + state.e + state.h) * pops
        if cumulative.sum() <= 0:
            cumulative = headroom
        return proportional_fill(cumulative, headroom, amount)

    if policy.kind == "age-priority":
        n_groups = instance.net.n_groups
        if n_groups == 0:
            raise ValueError("age-priority policy requires group structure")
        return _priority_fill(policy.priority_groups, headroom, amount, n_groups)

    # optimal-stabilizing
    if policy.resolve_mode == "static":
        if plan_remaining is None:
            raise ValueError("static optimal dosing needs the precomputed plan")
        caps = np.minimum(headroom, np.maximum(plan_remaining, 0.0))
        return proportional_fill(np.maximum(plan_remaining, 0.0), caps, amount)

    _, result = allocator.max_decay_binary_search(
        state, instance.net, instance.params, instance.contacts,
        budget=remaining_budget)
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
    """Per-simulation wrapper around emit_doses that owns the precomputed
    static plan and the administered ledger."""

    def __init__(self, policy: PolicySpec, instance: EpidemicInstance,
                 schedule) -> None:
        self.policy = policy
        self.instance = instance
        self.plan_remaining: Optional[np.ndarray] = None
        if policy.kind == "optimal-stabilizing" and policy.resolve_mode == "static":
            budget = schedule.total_budget * float(instance.cell_populations().sum())
            if budget > 0:
                _, result = allocator.max_decay_binary_search(
                    instance.state0, instance.net, instance.params,
                    instance.contacts, budget=budget)
                self.plan_remaining = result.dose_vector.copy()
            else:
                self.plan_remaining = np.zeros_like(instance.state0.s)

    def epoch_doses(self, state: EpidemicState, epoch_supply: float,
                    remaining_budget: float) -> np.ndarray:
        doses = emit_doses(self.policy, state, self.instance, epoch_supply,
                           remaining_budget, plan_remaining=self.plan_remaining)
        if self.plan_remaining is not None:
            self.plan_remaining = np.maximum(self.plan_remaining - doses, 0.0)
        return doses
