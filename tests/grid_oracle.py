"""Brute-force grid oracle for the 4-variable postprocessing LP.

Scans the full step-1/200 grid over [0, 1]^4, keeps points whose two
constraint residuals are at most 2e-3 in absolute value, and returns the
smallest objective among them.  The two raw rows are built from
``program.rates``, one per label class, not read from ``program.rows``.
Completely independent of the vertex-enumeration solver: no linear system
is ever solved.

A grid point is a (group-0, group-1) combination, each group living on a
201 x 201 subgrid.  Both sides are bucketed by their first-row rate with
bucket width equal to the residual tolerance, so every compatible pair sits
in adjacent buckets; the scan over bucket pairs applies the exact residual
conditions, keeping the full 201^4 sweep exact but tractable.
"""

import numpy as np

GRID_STEP = 1.0 / 200
RESIDUAL_TOL = 2e-3


def _group_values(row0, row1, objective, idx):
    """Per-group row rates and objective over the 201 x 201 subgrid."""
    pts = np.linspace(0.0, 1.0, 201)
    i, j = idx
    a = np.add.outer(row0[i] * pts, row0[j] * pts).ravel()
    b = np.add.outer(row1[i] * pts, row1[j] * pts).ravel()
    o = np.add.outer(objective[i] * pts, objective[j] * pts).ravel()
    return a, b, o


def grid_minimum(program) -> float:
    m0, m1 = [(h0, -h1, 1.0 - h0, -(1.0 - h1)) for h0, h1 in program.rates]
    c = program.objective

    # group 0 holds coordinates 0 and 2 (positive row signs); group 1 holds
    # coordinates 1 and 3, whose row signs are negative, so flip them and the
    # constraint reads "left value equals right value"
    l0, l1, lo = _group_values(m0, m1, c, (0, 2))
    r0, r1, ro = _group_values([-v for v in m0], [-v for v in m1], c, (1, 3))

    tol = RESIDUAL_TOL
    lbin = np.floor(l0 / tol).astype(np.int64)
    rbin = np.floor(r0 / tol).astype(np.int64)

    lorder = np.argsort(lbin, kind="stable")
    l0, l1, lo, lbin = l0[lorder], l1[lorder], lo[lorder], lbin[lorder]
    rorder = np.argsort(rbin, kind="stable")
    r0, r1, ro, rbin = r0[rorder], r1[rorder], ro[rorder], rbin[rorder]

    lbins, lstarts = np.unique(lbin, return_index=True)
    lstops = np.append(lstarts[1:], lbin.size)
    rbins, rstarts = np.unique(rbin, return_index=True)
    rstops = np.append(rstarts[1:], rbin.size)
    rminima = {int(b): float(ro[i:j].min()) for b, i, j in zip(rbins, rstarts, rstops)}

    # Lower bound per bucket pair region: min left objective plus min right
    # objective over the adjacent right buckets.  Valid for every pair in the
    # region, feasible or not, so scanning regions in bound order and
    # stopping once the bound cannot beat the incumbent stays exact.
    windows = []
    bounds = []
    for k, b in enumerate(lbins):
        b = int(b)
        wmin = min((rminima[w] for w in (b - 1, b, b + 1) if w in rminima), default=None)
        if wmin is None:
            continue
        windows.append(k)
        bounds.append(float(lo[lstarts[k]:lstops[k]].min()) + wmin)

    best = np.inf
    for pos in np.argsort(bounds, kind="stable"):
        if bounds[pos] >= best:
            break
        k = windows[pos]
        b = int(lbins[k])
        i0, i1 = lstarts[k], lstops[k]
        j0 = np.searchsorted(rbin, b - 1, side="left")
        j1 = np.searchsorted(rbin, b + 1, side="right")
        ll0, ll1, llo = l0[i0:i1], l1[i0:i1], lo[i0:i1]
        rr0, rr1, rro = r0[j0:j1], r1[j0:j1], ro[j0:j1]
        ok = (np.abs(ll0[:, None] - rr0[None, :]) <= tol) & (
            np.abs(ll1[:, None] - rr1[None, :]) <= tol
        )
        if not ok.any():
            continue
        total = llo[:, None] + rro[None, :]
        best = min(best, float(total[ok].min()))
    return best
