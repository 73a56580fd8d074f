"""Pursuer-evader win graph and task assignment.

Each certified pair becomes an edge of a bipartite graph; a maximum-
cardinality matching picks the guaranteed assignments, and leftover pursuers
chase the nearest unmatched evader opportunistically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certificates import Certificate, CertificateKind, certify_win
from .geometry import separation_holds
from .model import GameParams, JointState


@dataclass(frozen=True)
class WinGraph:
    """Bipartite graph over pursuer and evader indices; every edge carries
    the certificate that justifies it."""

    n_pursuers: int
    n_evaders: int
    edges: dict[tuple[int, int], Certificate] = field(default_factory=dict)

    def neighbors(self, pursuer: int) -> list[int]:
        return sorted(j for (i, j) in self.edges if i == pursuer)


@dataclass(frozen=True)
class Assignment:
    """Matched pairs plus opportunistic targets for unmatched pursuers.

    ``fallback`` flags assignments made with no unmatched evader left, in
    which case unmatched pursuers double up on the nearest matched evader.
    """

    matched: dict[int, int]
    opportunistic: dict[int, int]
    fallback: bool = False


def build_graph(
    pair_states: dict[tuple[int, int], JointState],
    pair_params: dict[tuple[int, int], GameParams],
    n_pursuers: int,
    n_evaders: int,
    motion: dict[int, str],
) -> WinGraph:
    """Certify every provided pair; an edge is present iff the certificate
    is not NONE.  Inactive players are simply absent from ``pair_states``.
    ``motion`` maps each pursuer index to its ``certify_win`` motion model.

    Pairs without separation are screened out first: every certificate
    requires it, so ``certify_win`` would return NONE for them.  The screen
    is ``separation_holds``, the same test ``certify_win`` makes.
    """
    edges = {}
    for key in sorted(pair_states):
        state, params = pair_states[key], pair_params[key]
        if not separation_holds(state, params):
            continue
        cert = certify_win(state, params, motion=motion[key[0]])
        if cert.kind is not CertificateKind.NONE:
            edges[key] = cert
    return WinGraph(n_pursuers=n_pursuers, n_evaders=n_evaders, edges=edges)


def max_matching(graph: WinGraph) -> dict[int, int]:
    """Maximum-cardinality matching by augmenting paths.

    Pursuers are processed in ascending index order and their neighbor lists
    are ascending as well, so the result is deterministic.  Each augmenting
    path is searched depth first with an explicit stack, so path length is
    not bounded by the interpreter's recursion limit.
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


def assign(
    graph: WinGraph,
    matching: dict[int, int],
    pursuer_positions: list[np.ndarray],
    evader_positions: dict[int, np.ndarray],
) -> Assignment:
    """Complete a matching with opportunistic targets.

    Every unmatched pursuer takes the nearest unmatched evader (ties broken
    by lowest evader index); when no unmatched evader remains they fall back
    to the nearest evader of any kind.  ``evader_positions`` holds active
    evaders only, keyed by index.
    """
    taken = set(matching.values())
    unmatched_evaders = sorted(j for j in evader_positions if j not in taken)
    opportunistic: dict[int, int] = {}
    fallback = False
    for i in range(graph.n_pursuers):
        if i in matching:
            continue
        pool = unmatched_evaders if unmatched_evaders else sorted(evader_positions)
        if not pool:
            continue
        if not unmatched_evaders:
            fallback = True
        pos = pursuer_positions[i]
        best = min(
            pool,
            key=lambda j: (
                math.hypot(
                    evader_positions[j][0] - pos[0], evader_positions[j][1] - pos[1]
                ),
                j,
            ),
        )
        opportunistic[i] = best
    return Assignment(matched=dict(matching), opportunistic=opportunistic, fallback=fallback)
