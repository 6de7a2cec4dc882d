"""Dense bounded-variable dual simplex for the Kelley cutting-plane LPs,
min c'x s.t. A x <= b, lower <= x <= upper, with lower finite.

Row i gets the slack column n + i (A x + s = b, s >= 0). The dual simplex
(Lemke 1954) keeps the basis dual feasible, every nonbasic column at a bound,
and pivots until the basic columns are within theirs. Its long-step ratio
test (Maros 2003) flips each boxed column whose breakpoint it can pass while
the leaving row stays infeasible, so that zero reduced costs do not stall it.
A returned ``Basis`` warm-starts the next solve (Bixby 2002): appended rows
keep their slacks basic, and after a change of objective or box each boxed
nonbasic column moves to the bound its reduced cost asks for; if a column
without an upper bound prices out negative, the solve starts from the
all-slack basis instead. After BLAND_AFTER degenerate pivots in a row,
Bland's rule picks both pivot columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SolverError

FEAS_TOL = 1e-9  # how far a basic column may lie outside its bounds
DUAL_TOL = 1e-9  # reduced costs this close to zero count as zero
PIVOT_TOL = 1e-9  # smallest pivot-row entry the ratio test accepts
MAX_PIVOTS = 5000  # per solve
BLAND_AFTER = 200  # degenerate test LPs stall for at most about 130 pivots


@dataclass
class Basis:
    """The basic column of each row, the bound each column sits at when
    nonbasic (True: upper), and the pivots of the solve that left it."""

    head: np.ndarray
    at_upper: np.ndarray
    pivots: int = 0


def solve(c: np.ndarray, A: np.ndarray, b: np.ndarray, lower: np.ndarray,
          upper: np.ndarray, basis: Basis | None = None,
          ) -> tuple[np.ndarray, Basis]:
    """The optimal x (clipped into its box) and the final basis. basis, from
    a solve with as many columns and no more rows, is the warm start. Raises
    SolverError if the LP is infeasible or takes more than MAX_PIVOTS."""
    m, n = A.shape
    full = np.hstack([A, np.eye(m)])
    cost = np.concatenate([c, np.zeros(m)])
    lo = np.concatenate([lower, np.zeros(m)])
    hi = np.concatenate([upper, np.full(m, np.inf)])
    boxed = np.isfinite(hi)
    starts = [(np.arange(n, n + m), boxed)]
    if (basis is not None and basis.head.size <= m
            and basis.at_upper.size - basis.head.size == n):
        k = basis.head.size
        starts.insert(0, (
            np.concatenate([basis.head, np.arange(n + k, n + m)]),
            np.concatenate([basis.at_upper, np.zeros(m - k, bool)])))
    for head, at_upper in starts:
        binv = np.linalg.solve(full[:, head], np.eye(m))
        d = cost - (cost[head] @ binv) @ full
        d[head] = 0.0
        if np.all(d[~boxed] >= -DUAL_TOL):
            break
    else:
        raise SolverError("the LP has no dual feasible basis")
    # each boxed column goes to the bound its reduced cost prefers
    at_upper = boxed & np.where(np.abs(d) <= DUAL_TOL, at_upper, d < 0)
    x = np.where(at_upper, hi, lo)
    bland = False
    degenerate = 0
    for pivots in range(MAX_PIVOTS + 1):
        x[head] = 0.0
        x[head] = binv @ (b - full @ x)
        short = np.maximum(lo[head] - x[head], x[head] - hi[head])
        if short.max() <= FEAS_TOL:
            break
        if pivots == MAX_PIVOTS:
            raise SolverError(f"dual simplex took over {MAX_PIVOTS} pivots")
        bland = bland or degenerate >= BLAND_AFTER
        out = np.flatnonzero(short > FEAS_TOL)
        r = out[np.argmin(head[out])] if bland else int(np.argmax(short))
        below = x[head[r]] < lo[head[r]]
        row = binv[r] @ full
        step = -row if below else row
        nonbasic = np.ones(n + m, bool)
        nonbasic[head] = False
        enter = np.flatnonzero(nonbasic & (hi > lo) & np.where(
            at_upper, step < -PIVOT_TOL, step > PIVOT_TOL))
        if enter.size == 0:
            raise SolverError("the LP is infeasible")
        d = cost - (cost[head] @ binv) @ full
        ratio = np.maximum(np.where(at_upper, -d, d)[enter], 0.0) \
            / np.abs(row[enter])
        if bland:  # enter is ascending: the first tie has the least index
            k = np.flatnonzero(ratio <= ratio.min() + DUAL_TOL)[0]
        else:
            # pass every breakpoint whose bound flip leaves row r infeasible
            order = np.lexsort((-np.abs(row[enter]), ratio))
            slope = short[r] - np.cumsum(
                (np.abs(row[enter]) * (hi - lo)[enter])[order])
            stop = np.flatnonzero(slope <= FEAS_TOL)
            if stop.size == 0:
                raise SolverError("the LP is infeasible")
            flip = enter[order[:stop[0]]]
            at_upper[flip] = ~at_upper[flip]
            x[flip] = np.where(at_upper[flip], hi[flip], lo[flip])
            k = order[stop[0]]
        q = enter[k]
        degenerate = degenerate + 1 if ratio[k] <= DUAL_TOL else 0
        col = binv @ full[:, q]
        at_upper[head[r]] = not below
        x[head[r]] = lo[head[r]] if below else hi[head[r]]
        pivot = binv[r] / col[r]
        binv -= np.outer(col, pivot)
        binv[r] = pivot
        head[r] = q
    return (np.clip(x[:n], lower, upper),
            Basis(head=head, at_upper=at_upper, pivots=pivots))
