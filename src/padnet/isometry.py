"""The copy-expansion certificate behind `verify`'s `isometry-exact`.

It reads a record and two edge lists alone, in O(n + m) numpy, and imports
nothing from the modules it checks.  Conditions (a) to (d), and why they
make the designated copies' distances equal the input graph's bit for bit,
are in `verify`'s module docstring.
"""

from __future__ import annotations

import numpy as np

from .oracle import _edge_arrays, _least_joined


def _isometry_fault(g, host, forward: np.ndarray, owner: np.ndarray, member: np.ndarray) -> str | None:
    """First witness (None: no fault) of the certificate that host is g
    copy-expanded: conditions (a) to (d), in order, each naming its smallest
    vertex or edge.

    forward holds host vertices; (owner, member) is the copies' membership
    table (`verify._memberships`), host vertex member[i] a copy of vertex
    owner[i], ids already kept in range.  The members of a copies tuple past
    g's n vertices are copies of no vertex, and are left out.
    """
    keep = owner < g.n
    owner, member = owner[keep], member[keep]
    count = np.bincount(member, minlength=host.n)
    if (count != 1).any():
        h = int(np.argmax(count != 1))
        of = owner[member == h]
        return f"host vertex {h} is a copy of " + (f"vertices {of[0]} and {of[1]}" if of.size else "no vertex")
    if forward.size != g.n:
        return f"forward lists {forward.size} vertices, g has {g.n}"
    orig = np.empty(host.n, dtype=np.int64)
    orig[member] = owner
    wrong = np.flatnonzero(orig[forward] != np.arange(g.n))
    if wrong.size:
        v = int(wrong[0])
        return f"vertex {v}: forward {forward[v]} is a copy of vertex {orig[forward[v]]}"

    ga, gb, gw = _edge_arrays(g)
    ha, hb, hw = _edge_arrays(host)
    x, y = orig[ha], orig[hb]
    cross = np.flatnonzero(x != y)
    lo, hi, w = np.minimum(x, y)[cross], np.maximum(x, y)[cross], hw[cross]
    key = lo * g.n + hi
    gkey = np.append(ga * g.n + gb, g.n * g.n)  # ascending, as g.edges is; the last a sentinel
    at = np.searchsorted(gkey, key)
    fits = (gkey[at] == key) & (np.append(gw, np.inf)[at] <= w)
    if not fits.all():
        i = int(np.argmin(fits))
        return (
            f"host edge ({ha[cross[i]]},{hb[cross[i]]}) weight {w[i]} lies over no edge of g "
            f"between {lo[i]} and {hi[i]} of weight <= {w[i]}"
        )
    exact = np.zeros(ga.size, dtype=bool)
    exact[at[gw[at] == w]] = True  # by (b), every at is an edge of g
    if not exact.all():
        i = int(np.argmin(exact))
        return f"edge ({ga[i]},{gb[i]}) of g, weight {gw[i]}: no host edge over it of that weight"

    # each vertex's zero-weight component is labelled by its least vertex
    label = _least_joined(host.n, ha[hw == 0.0], hb[hw == 0.0])
    apart = np.flatnonzero(label != label[forward[orig]])
    if apart.size:
        h = int(apart[0])
        return f"copy {h} of vertex {orig[h]} is joined to forward {forward[orig[h]]} by no zero-weight path"
    return None
