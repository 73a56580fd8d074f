"""Output checks made apart from the program.

Every function here recomputes what it checks from first principles (the
Apollonius disk, a breadth-first augmenting-path matching, a grid search of
the relaxed clearance problem) or checks a property the method must have,
so that a fault in the program cannot also hide in its own check.  Each
returns a list of messages, empty when the check passes.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque

import numpy as np

#: Points per boundary circle in the global grid of the clearance search.
CLEARANCE_GRID = 512


def lowest_point(xp: float, yp: float, xe: float, ye: float, alpha: float) -> tuple[float, float]:
    """Lowest point of the evasion (Apollonius) disk of a pursuer at
    (xp, yp) and an evader at (xe, ye) with speed ratio alpha."""
    a2 = alpha * alpha
    cx = (a2 * xe - xp) / (a2 - 1.0)
    cy = (a2 * ye - yp) / (a2 - 1.0)
    radius = alpha * math.hypot(xp - xe, yp - ye) / (a2 - 1.0)
    return cx, cy - radius


def max_matching_size(edges, n_pursuers: int) -> int:
    """Size of a maximum bipartite matching, by breadth-first augmenting
    paths (iterative, unlike the program's depth-first search)."""
    adj: dict[int, list[int]] = {i: [] for i in range(n_pursuers)}
    for i, j in edges:
        adj[i].append(j)
    owner: dict[int, int] = {}  # evader -> pursuer
    for root in range(n_pursuers):
        parent: dict[int, tuple[int, int | None]] = {}  # evader -> (pursuer, prev evader)
        queue = deque([(root, None)])
        end = None
        while queue and end is None:
            i, via = queue.popleft()
            for j in adj[i]:
                if j in parent:
                    continue
                parent[j] = (i, via)
                if j not in owner:
                    end = j
                    break
                queue.append((owner[j], j))
        # Flip the alternating path: each evader on it moves to the pursuer
        # that reached it, which frees the previous evader for the next one.
        while end is not None:
            i, prev = parent[end]
            owner[end] = i
            end = prev
    return len(owner)


def check_matching(edges, matching: dict[int, int], n_pursuers: int) -> list[str]:
    errors = []
    if len(set(matching.values())) != len(matching):
        errors.append(f"matching assigns an evader twice: {matching}")
    for i, j in matching.items():
        if (i, j) not in edges:
            errors.append(f"matched pair ({i}, {j}) is not a certified edge")
    best = max_matching_size(edges, n_pursuers)
    if len(matching) != best:
        errors.append(f"matching size {len(matching)} != maximum {best}")
    return errors


def check_separation(pair_states, pair_params, edges) -> list[str]:
    """Every certified edge keeps the evasion disk out of the goal."""
    errors = []
    for key in edges:
        st = pair_states[key]
        xp, yp = float(st.pursuer.pos[0]), float(st.pursuer.pos[1])
        xe, ye = float(st.evader.pos[0]), float(st.evader.pos[1])
        _, low = lowest_point(xp, yp, xe, ye, pair_params[key].alpha)
        if low < -1e-12 * (1.0 + abs(ye)):
            errors.append(f"edge {key} certified with evasion disk at y={low:.3g}")
    return errors


def turn_center(xp, yp, theta, xe, ye, alpha, kappa) -> tuple[float, float]:
    """Center of the full-rate turn that swings the heading toward the
    interception angle by the shorter way."""
    lx, ly = lowest_point(xp, yp, xe, ye, alpha)
    err = math.atan2(ly - yp, lx - xp) - theta
    s = math.sin(err)
    sign = -1.0 if s == 0.0 else math.copysign(1.0, s)
    bearing = theta + sign * 0.5 * math.pi
    return xp + kappa * math.cos(bearing), yp + kappa * math.sin(bearing)


def relaxed_clearance_grid(center, evader, alpha: float, kappa: float) -> float:
    """Worst-case clearance of the relaxed two-step problem by grid search.

    The pursuer's point ranges over its turn circle, the evader's over its
    reach circle (radius 2*pi*kappa/alpha); the worst clearance is the
    minimum of (a^2 y_e - y_p - alpha |x_p - x_e|) / (a^2 - 1).  A global
    grid finds the best cell, three finer local grids polish it.
    """
    a2 = alpha * alpha
    reach = 2.0 * math.pi * kappa / alpha
    cx, cy = center
    ex, ey = evader

    def value(tp, te):
        xp = cx + kappa * np.cos(tp)
        yp = cy + kappa * np.sin(tp)
        xe = ex + reach * np.cos(te)
        ye = ey + reach * np.sin(te)
        return (a2 * ye - yp - alpha * np.hypot(xp - xe, yp - ye)) / (a2 - 1.0)

    angles = np.linspace(0.0, 2.0 * math.pi, CLEARANCE_GRID, endpoint=False)
    tp, te = np.meshgrid(angles, angles, indexing="ij")
    vals = value(tp, te)
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    best_p, best_e, best = angles[i], angles[j], float(vals[i, j])
    half = 2.0 * math.pi / CLEARANCE_GRID
    for _ in range(3):
        local = np.linspace(-half, half, 65)
        tp, te = np.meshgrid(best_p + local, best_e + local, indexing="ij")
        vals = value(tp, te)
        i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if vals[i, j] < best:
            best_p, best_e, best = float(tp[i, j]), float(te[i, j]), float(vals[i, j])
        half /= 16.0
    return best


def check_clearance(closed: float, brute: float) -> list[str]:
    """The closed form is the exact minimum: it agrees with a grid search
    within 1e-3 * (1 + |c|)."""
    if abs(closed - brute) > 1e-3 * (1.0 + abs(closed)):
        return [f"closed-form clearance {closed:.9g} vs grid search {brute:.9g}"]
    return []


def read_trajectory(path) -> dict[str, dict[str, list]]:
    """Trajectory CSV as per-agent columns (t, x, y, status), in time order."""
    cols: dict[str, dict[str, list]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        it, ia, ix, iy, ist = (header.index(k) for k in ("t", "agent", "x", "y", "status"))
        for row in reader:
            agent = cols.get(row[ia])
            if agent is None:
                agent = cols[row[ia]] = {"t": [], "x": [], "y": [], "status": []}
            agent["t"].append(float(row[it]))
            agent["x"].append(float(row[ix]))
            agent["y"].append(float(row[iy]))
            agent["status"].append(row[ist])
    return cols


def read_events(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_game(doc: dict, cols: dict[str, dict[str, list]], events: list[dict], dt: float) -> list[str]:
    """Kinematic and outcome properties of a finished game.

    Every agent moves at most speed * dt per step; no active evader is in
    the goal; each capture happens at distance r to within the step's
    relative motion (v_P + v_E) * dt; every evader ends captured or at the
    goal.  Positions are printed at 9 significant digits, hence the small
    absolute tolerances.
    """
    errors = []
    speeds = {f"P{i + 1}": p["speed"] for i, p in enumerate(doc["pursuers"])}
    speeds.update({f"E{j + 1}": e["speed"] for j, e in enumerate(doc["evaders"])})
    lengths = {len(c["t"]) for c in cols.values()}
    if set(cols) != set(speeds) or len(lengths) != 1:
        return [f"trajectory agents {sorted(cols)} or lengths {sorted(lengths)} malformed"]
    for agent, c in cols.items():
        v = speeds[agent]
        xs, ys = np.array(c["x"]), np.array(c["y"])
        step = np.hypot(np.diff(xs), np.diff(ys))
        excess = step - v * dt - (v * dt * 1e-6 + 1e-8 * (1.0 + np.abs(xs[1:]) + np.abs(ys[1:])))
        if excess.max() > 0.0:
            k = int(np.argmax(excess))
            errors.append(f"{agent} moved {step[k]:.9g} > {v * dt:.3g} in step {k}")
        if agent.startswith("E"):
            active = np.array([s == "active" for s in c["status"]])
            if active.any() and ys[active].min() <= 0.0:
                errors.append(f"{agent} active inside the goal (y={ys[active].min():.3g})")
            if c["status"][-1] not in ("captured", "reached_goal"):
                errors.append(f"{agent} ends {c['status'][-1]}")

    times = np.array(cols["P1"]["t"])
    for ev in events:
        if ev["kind"] != "capture":
            continue
        k = int(np.searchsorted(times, ev["t"] - 1e-12))
        p, e = cols[ev["pursuer"]], cols[ev["evader"]]
        i = int(ev["pursuer"][1:]) - 1
        j = int(ev["evader"][1:]) - 1
        r = doc["pursuers"][i]["capture_radius"]
        slack = (doc["pursuers"][i]["speed"] + doc["evaders"][j]["speed"]) * dt
        dist = math.hypot(p["x"][k] - e["x"][k], p["y"][k] - e["y"][k])
        if abs(dist - r) > slack + 1e-7:
            errors.append(f"capture {ev['pursuer']}-{ev['evader']} at distance {dist:.9g}, r={r}")
    return errors


def read_oracle_row(path) -> dict:
    """The one row of an ``oracle-compare --trials 1`` CSV."""
    with open(path, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    return row


def check_oracle_row(row: dict) -> list[str]:
    """Closed form within 1e-3 * (1 + |c|) of the relaxed oracle and at most
    the rollout oracle plus 1e-3."""
    c = float(row["clearance_closed"])
    relaxed = float(row["oracle_relaxed"])
    rollout = float(row["oracle_rollout"])
    errors = []
    if abs(c - relaxed) > 1e-3 * (1.0 + abs(c)):
        errors.append(f"trial closed form {c:.9g} vs relaxed oracle {relaxed:.9g}")
    if c > rollout + 1e-3:
        errors.append(f"trial closed form {c:.9g} above rollout oracle {rollout:.9g}")
    return errors
