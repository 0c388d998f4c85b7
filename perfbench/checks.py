"""Structural checks the benchmark computes itself, outside the timed region.

Each function returns a list of problems; an empty list means the artifact
passed.  They use only the artifacts' public fields, never padnet's own
verifier, so a defect in the verifier cannot hide a defect in a construction.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9


def _membership(n: int, clusters) -> np.ndarray:
    counts = np.zeros(n, dtype=np.int64)
    for c in clusters:
        counts[np.fromiter(c.members, dtype=np.int64, count=len(c.members))] += 1
    return counts


def partition(p, n: int, delta: float, alpha: float) -> list[str]:
    """Total and disjoint, consistent with its assignment, radii in [delta, (alpha+1)delta/2]."""
    problems = []
    counts = _membership(n, p.clusters)
    if not (counts == 1).all():
        problems.append(f"{int((counts != 1).sum())} vertices not in exactly one cluster")
    if p.assignment.shape != (n,):
        problems.append(f"assignment has shape {p.assignment.shape}, want ({n},)")
    else:
        for i, c in enumerate(p.clusters):
            idx = np.fromiter(c.members, dtype=np.int64, count=len(c.members))
            if (p.assignment[idx] != i).any():
                problems.append(f"cluster {i} disagrees with the assignment")
                break
    radii = np.array([r for _, r in p.trace])
    lo, hi = delta, (alpha + 1) * delta / 2
    bad = (radii < lo - TOL) | (radii > hi + TOL)
    if bad.any():
        problems.append(f"{int(bad.sum())} radii outside [{lo}, {hi}]")
    return problems


def sparse_cover(cover, n: int, tau_emp: int) -> list[str]:
    """Every vertex covered, by at most tau_emp clusters."""
    counts = _membership(n, cover.clusters)
    problems = []
    if (counts == 0).any():
        problems.append(f"{int((counts == 0).sum())} vertices in no cluster")
    if counts.max() > tau_emp:
        problems.append(f"a vertex lies in {int(counts.max())} clusters > tau_emp {tau_emp}")
    return problems


def partition_cover(pcover, n: int) -> list[str]:
    """Every partition of the cover partitions the host."""
    problems = []
    for i, part in enumerate(pcover.partitions):
        counts = _membership(n, part)
        if not (counts == 1).all():
            problems.append(f"partition {i}: {int((counts != 1).sum())} vertices not covered once")
    return problems


def padding_counts(counts: dict, gammas, n: int, trials: int) -> list[str]:
    """One count per vertex and gamma, each in [0, trials]."""
    problems = []
    for gm in gammas:
        c = counts.get(float(gm))
        if c is None or c.shape != (n,):
            problems.append(f"gamma {gm}: missing or misshapen counts")
        elif c.min() < 0 or c.max() > trials:
            problems.append(f"gamma {gm}: counts outside [0, {trials}]")
    return problems
