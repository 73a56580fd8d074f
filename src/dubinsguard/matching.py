"""Pursuer-evader win graph and task assignment.

Each certified pair becomes an edge of a bipartite graph; a maximum-
cardinality matching picks the guaranteed assignments, and leftover pursuers
chase the nearest unmatched evader opportunistically (the nearest evader
when every one is held), read from the game's pair-distance array.  The
simulator reads a certificate only as the edge it makes: it merges edge
keys and matches a graph of bare keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certificates import Certificate, CertificateEvidence, CertificateKind, ClearanceAnchor, certify_win
from .model import GameParams, JointState


@dataclass(frozen=True)
class WinGraph:
    """Bipartite graph over pursuer and evader indices; every edge carries
    the certificate that justifies it (``build_graph``), or None in the
    graph of bare keys the simulator matches.  ``screened`` holds the aim
    height, below 0, of every pair certified without separation, ``refuted``
    the evidence of every pair its two-step witness refuted."""

    n_pursuers: int
    edges: dict[tuple[int, int], Certificate | None] = field(default_factory=dict)
    screened: dict[tuple[int, int], float] = field(default_factory=dict)
    refuted: dict[tuple[int, int], CertificateEvidence] = field(default_factory=dict)


def build_graph(
    pair_states: dict[tuple[int, int], JointState],
    pair_params: dict[tuple[int, int], GameParams],
    n_pursuers: int,
    anchors: dict[tuple[int, int], ClearanceAnchor] | None = None,
) -> WinGraph:
    """Certify every provided pair; an edge is present iff the certificate
    is not NONE.  Inactive players are simply absent from ``pair_states``.

    The graph reports the aim height (``evidence.separation``) of every
    pair whose certificate lacks separation, and the evidence of each pair
    refuted before a solve or a carry.  ``anchors`` holds each pair's
    last two-step solve, updated in place: ``certify_win`` may carry it, a
    new solve replaces it and a failed one drops it.  Without it nothing is
    carried.
    """
    if anchors is None:
        anchors = {}
    graph = WinGraph(n_pursuers=n_pursuers)
    for key in sorted(pair_states):
        cert = certify_win(pair_states[key], pair_params[key], anchors.get(key))
        ev = cert.evidence
        if ev.anchor is not None:
            anchors[key] = ev.anchor
        elif ev.solver_failed:
            anchors.pop(key, None)
        elif ev.clearance is not None:
            graph.refuted[key] = ev
        if not ev.sc:
            graph.screened[key] = ev.separation
        if cert.kind is not CertificateKind.NONE:
            graph.edges[key] = cert
    return graph


def max_matching(graph: WinGraph) -> dict[int, int]:
    """Maximum-cardinality matching by augmenting paths.

    Pursuers are processed in ascending index order and their neighbor lists
    are ascending as well, so the result is a function of ``n_pursuers`` and
    the edge-key set, which the simulator reuses while that set is unchanged
    (6 calls in 1,899 refreshes of the bundled 5v5 re-matched every step).
    Each augmenting path is searched depth first with an explicit stack, so
    path length is not bounded by the interpreter's recursion limit.
    """
    adjacency: dict[int, list[int]] = {i: [] for i in range(graph.n_pursuers)}
    for i, j in sorted(graph.edges):
        if i in adjacency:
            adjacency[i].append(j)
    evader_owner: dict[int, int] = {}
    for i in range(graph.n_pursuers):
        _augment(i, adjacency, evader_owner)
    return {i: j for j, i in sorted(evader_owner.items(), key=lambda kv: kv[1])}


def _augment(root: int, adjacency: dict[int, list[int]], evader_owner: dict[int, int]) -> bool:
    """Depth-first search for an augmenting path from pursuer ``root``;
    flips it into ``evader_owner`` when found.

    ``stack`` holds the pursuers on the current path, each with the
    iterator over its remaining neighbors, and ``path[k]`` is the evader
    through which ``stack[k + 1]`` was reached.
    """
    seen: set[int] = set()
    stack = [(root, iter(adjacency[root]))]
    path: list[int] = []
    while stack:
        for j in stack[-1][1]:
            if j in seen:
                continue
            seen.add(j)
            path.append(j)
            if j not in evader_owner:
                for (i, _), evader in zip(stack, path):
                    evader_owner[evader] = i
                return True
            owner = evader_owner[j]
            stack.append((owner, iter(adjacency[owner])))
            break
        else:
            stack.pop()
            if path:
                path.pop()
    return False


def assign(matched: dict[int, int], dist: np.ndarray, active: list[int]) -> dict[int, int]:
    """Opportunistic targets of the pursuers outside ``matched``.

    ``dist`` is the ``(n_p, n_e)`` pair-distance array and ``active`` the
    ascending indices of the evaders in play.  Each pursuer outside
    ``matched`` takes the nearest active evader that no pair holds, or the
    nearest active evader when every one is held; ties go to the lowest
    evader index.  With every pursuer matched it returns ``{}`` without
    reading ``dist``; the game calls it only when some pursuer is
    unmatched, so that it computes the distances only then.
    """
    if len(matched) == len(dist):
        return {}
    pool = _pool(matched, active)
    if not pool:
        return {}
    nearest = np.argmin(dist[:, pool], axis=1).tolist()
    return {i: pool[k] for i, k in enumerate(nearest) if i not in matched}


def _pool(matched: dict[int, int], active: list[int]) -> list[int]:
    """The evaders ``assign`` picks from: the active ones that no pair of
    ``matched`` holds, or every active one when all are held."""
    taken = set(matched.values())
    return [j for j in active if j not in taken] or active
