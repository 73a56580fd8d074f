import dataclasses
import math

import numpy as np
import pytest

import dubinsguard as dg
from conftest import adjacency, brute_force_matching_size, make_state


def _dummy_cert():
    return dg.certify_win(
        make_state(0, 2, 0.0, 0, 1), dg.GameParams(2, 1, 1, 0.1, motion="simple")
    )


def _graph(n_p, pairs):
    return dg.WinGraph(n_pursuers=n_p, edges={pair: _dummy_cert() for pair in pairs})


class TestBuildGraph:
    def _pair_inputs(self, pursuer_rows, evader_rows, motion="simple"):
        p = dg.GameParams(2.0, 1.0, 1.0, 0.1, motion=motion)
        states = {}
        params = {}
        for i, (px, py) in enumerate(pursuer_rows):
            for j, (ex, ey) in enumerate(evader_rows):
                states[(i, j)] = make_state(px, py, 0.0, ex, ey)
                params[(i, j)] = p
        return states, params

    def test_all_pairs_certified_gives_complete_graph(self):
        # simple-motion pursuers win on separation alone; evaders placed high
        states, params = self._pair_inputs(
            [(0, 1), (3, 1)], [(0, 5), (3, 5)]
        )
        g = dg.build_graph(states, params, 2)
        assert set(g.edges) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_no_pairs_certified_gives_empty_graph(self):
        # evaders hugging the goal line: separation fails everywhere
        states, params = self._pair_inputs(
            [(0, 5), (3, 5)], [(0, 0.1), (3, 0.1)]
        )
        g = dg.build_graph(states, params, 2)
        assert g.edges == {}

    def test_golden_scenario_initial_edges(self):
        from dubinsguard.cli import load_scenario
        from importlib import resources

        with resources.as_file(
            resources.files("dubinsguard") / "scenarios" / "5v5_paper.json"
        ) as path:
            sc = load_scenario(path)
        states = {
            (i, j): dg.JointState(
                pursuer=sc.pursuers[i].state, evader=sc.evaders[j].state
            )
            for i in range(5)
            for j in range(5)
        }
        params = {
            (i, j): sc.pair_params(i, j) for i in range(5) for j in range(5)
        }
        g = dg.build_graph(states, params, 5)
        assert set(g.edges) == {(0, 3), (2, 2), (3, 1), (4, 0)}

    def test_removing_a_pair_never_adds_edges(self):
        states, params = self._pair_inputs(
            [(0, 1), (3, 1)], [(0, 5), (3, 5)]
        )
        full = dg.build_graph(states, params, 2)
        states.pop((0, 1))
        params.pop((0, 1))
        reduced = dg.build_graph(states, params, 2)
        assert set(reduced.edges) <= set(full.edges)


def _screen_corpus(rng, n):
    """Seeded pair states and parameters for the separation screen: random
    pairs, pairs shifted to within 1e-12 of the separation boundary (a
    common vertical shift moves the aim point by the same amount), aligned
    pairs, and a mix of car and simple-motion pursuers, each pursuer's
    motion in its pairs' parameters."""
    paper = dg.GameParams.from_alpha(v_p=0.3, alpha=6.3, kappa=0.0625, r=0.1)
    states, params = {}, {}
    for i in range(n):
        motion = "simple" if rng.uniform() < 0.25 else "dubins"
        for j in range(n):
            if rng.uniform() < 0.5:
                p = paper
            else:
                alpha = rng.uniform(1.5, 8.0)
                p = dg.GameParams.from_alpha(
                    v_p=0.3, alpha=alpha, kappa=rng.uniform(0.01, 0.1), r=rng.uniform(0.05, 0.5)
                )
            x_p = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.5)])
            bearing = rng.uniform(0, 2 * math.pi)
            x_e = x_p + rng.uniform(0.15, 1.0) * np.array([math.cos(bearing), math.sin(bearing)])
            if rng.uniform() < 0.4:
                clearance = dg.interception(x_p, x_e, p.alpha).clearance
                shift = np.array([0.0, rng.choice([-1e-12, 0.0, 1e-12]) - clearance])
                x_p, x_e = x_p + shift, x_e + shift
            theta = rng.uniform(0, 2 * math.pi)
            if rng.uniform() < 0.3:
                theta = dg.interception(x_p, x_e, p.alpha).angle
            states[(i, j)] = make_state(x_p[0], x_p[1], theta, x_e[0], x_e[1])
            params[(i, j)] = dataclasses.replace(p, motion=motion)
    return states, params


class TestSeparationScreen:
    def test_screen_matches_certifying_every_pair(self):
        rng = np.random.default_rng(64)
        kinds = set()
        near_boundary = 0
        for _ in range(12):
            states, params = _screen_corpus(rng, 8)
            graph = dg.build_graph(states, params, 8)
            expected = {}
            for key in sorted(states):
                cert = dg.certify_win(states[key], params[key])
                if cert.kind is not dg.CertificateKind.NONE:
                    expected[key] = cert
            near_boundary += sum(
                abs(dg.interception(st.pursuer.pos, st.evader.pos, params[key].alpha).clearance)
                < 1e-11
                for key, st in states.items()
            )
            assert list(graph.edges) == list(expected)
            for key, cert in expected.items():
                assert graph.edges[key].kind is cert.kind
                assert graph.edges[key].evidence == cert.evidence
                kinds.add(cert.kind)
        assert kinds == {dg.CertificateKind.INTERCEPT, dg.CertificateKind.TWO_STEP}
        assert near_boundary > 100

    def test_every_offered_pair_is_certified_once(self, monkeypatch):
        # certify_win is the one separation test: every pair is certified
        # once, and the graph reports the aim height of each certificate
        # without separation
        from dubinsguard import matching

        states, params = _screen_corpus(np.random.default_rng(65), 6)
        calls = []

        def counting(state, p, anchor=None):
            cert = dg.certify_win(state, p, anchor)
            calls.append((state, cert))
            return cert

        monkeypatch.setattr(matching, "certify_win", counting)
        graph = dg.build_graph(states, params, 6)
        assert len(calls) == len(states)
        assert all(state is states[key] for (state, _), key in zip(calls, sorted(states)))
        unseparated = {
            key: cert.evidence.separation
            for (_, cert), key in zip(calls, sorted(states))
            if not cert.evidence.sc
        }
        assert graph.screened == unseparated
        assert 0 < len(unseparated) < len(states)

    def test_each_pair_aim_point_computed_once(self, monkeypatch):
        # certify_win computes each pair's aim point once: one aim_point
        # call per pair, wherever it is made from
        from dubinsguard import certificates, geometry

        calls = []
        aim_point = geometry.aim_point

        def counting(x_p, x_e, alpha):
            calls.append(alpha)
            return aim_point(x_p, x_e, alpha)

        rng = np.random.default_rng(66)
        for module in (certificates, geometry):
            monkeypatch.setattr(module, "aim_point", counting)
        for _ in range(4):
            states, params = _screen_corpus(rng, 6)
            calls.clear()
            graph = dg.build_graph(states, params, 6)
            assert len(calls) == len(states)
            assert 0 < len(graph.screened) < len(states)
            assert any(c.kind is dg.CertificateKind.TWO_STEP for c in graph.edges.values())

    def test_intercepts_at_a_given_aim_is_the_intercept_certificate(self, monkeypatch):
        # handed each pair's aim, ``intercepts`` computes none, builds no
        # certificate and holds on exactly the keys that certify_win
        # certifies INTERCEPT: the test the simulator makes on an
        # intercepting car's own pair at the car's re-snap aim
        from dubinsguard import certificates
        from dubinsguard.geometry import aim_bearing, aim_point

        states, params = _screen_corpus(np.random.default_rng(68), 8)
        pairs, expected = {}, set()
        for key, st in states.items():
            x_p, x_e = st.pursuer.pos, st.evader.pos
            x, y, _ = aim_point(x_p, x_e, params[key].alpha)
            pairs[key] = (st.pursuer.theta, (x, y, aim_bearing(x_p, x, y)))
            if dg.certify_win(st, params[key]).kind is dg.CertificateKind.INTERCEPT:
                expected.add(key)

        def unexpected(*args, **kwargs):
            raise AssertionError("aim point recomputed or certificate built")

        for name in ("aim_point", "Certificate", "CertificateEvidence"):
            monkeypatch.setattr(certificates, name, unexpected)
        held = {key for key, (theta, aim) in pairs.items() if certificates.intercepts(aim, theta, params[key])}
        assert held == expected
        assert 0 < len(expected) < len(pairs)

    def test_screened_heights_are_the_aim_heights(self):
        from dubinsguard.geometry import aim_point

        states, params = _screen_corpus(np.random.default_rng(67), 6)
        graph = dg.build_graph(states, params, 6)
        expected = {}
        for key, st in states.items():
            y = aim_point(st.pursuer.pos, st.evader.pos, params[key].alpha)[1]
            if y < 0.0:
                expected[key] = y
        assert graph.screened == expected
        assert not set(graph.screened) & set(graph.edges)


def _recursive_matching(graph):
    """Depth-first augmenting paths by recursion, visiting pursuers and
    their neighbors in ascending order."""
    neighbors = adjacency(graph)
    owner = {}

    def try_assign(i, seen):
        for j in neighbors[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in owner or try_assign(owner[j], seen):
                owner[j] = i
                return True
        return False

    for i in range(graph.n_pursuers):
        try_assign(i, set())
    return {i: j for j, i in sorted(owner.items(), key=lambda kv: kv[1])}


class TestMaxMatching:
    def test_single_edge(self):
        assert dg.max_matching(_graph(2, [(0, 0)])) == {0: 0}

    def test_complete_two_by_two(self):
        m = dg.max_matching(_graph(2, [(0, 0), (0, 1), (1, 0), (1, 1)]))
        assert len(m) == 2
        assert sorted(m.values()) == [0, 1]

    def test_requires_augmenting_path(self):
        # 0 prefers evader 0, but 1 can only take evader 0
        m = dg.max_matching(_graph(2, [(0, 0), (0, 1), (1, 0)]))
        assert m == {0: 1, 1: 0}

    def test_matches_exhaustive_search_on_random_graphs(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            n_p = int(rng.integers(1, 9))
            n_e = int(rng.integers(1, 9))
            pairs = [
                (i, j)
                for i in range(n_p)
                for j in range(n_e)
                if rng.uniform() < 0.35
            ]
            g = _graph(n_p, pairs)
            m = dg.max_matching(g)
            # must be a valid matching
            assert len(set(m.values())) == len(m)
            for i, j in m.items():
                assert (i, j) in g.edges
            assert len(m) == brute_force_matching_size(n_p, adjacency(g))

    def test_same_matching_as_recursive_search(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            n_p = int(rng.integers(1, 12))
            n_e = int(rng.integers(1, 12))
            density = rng.uniform(0.1, 0.6)
            pairs = [
                (i, j) for i in range(n_p) for j in range(n_e) if rng.uniform() < density
            ]
            g = _graph(n_p, pairs)
            assert dg.max_matching(g) == _recursive_matching(g)

    def test_long_chain_has_no_recursion_limit(self):
        # pursuer i links to evaders i-1 and i; each new pursuer's search
        # walks the whole chain before it takes its own evader
        n = 1500
        cert = _dummy_cert()
        edges = {(i, j): cert for i in range(n) for j in (i - 1, i) if j >= 0}
        m = dg.max_matching(dg.WinGraph(n_pursuers=n, edges=edges))
        assert m == {i: i for i in range(n)}

    def test_deterministic(self):
        pairs = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0)]
        a = dg.max_matching(_graph(3, pairs))
        b = dg.max_matching(_graph(3, pairs))
        assert a == b


def _reference_assign(matched, p_xy, e_xy, active):
    """The opportunistic rule on ``math.hypot`` distances: each pursuer
    outside ``matched`` takes the (distance, index)-least of the active
    evaders no pair holds, or of all active evaders when every one is held."""
    taken = set(matched.values())
    pool = [j for j in active if j not in taken] or active
    if not pool:
        return {}
    return {
        i: min(pool, key=lambda j: (math.hypot(e_xy[j][0] - x, e_xy[j][1] - y), j))
        for i, (x, y) in enumerate(p_xy)
        if i not in matched
    }


def _dist(p_xy, e_xy):
    return dg.pair_distances(np.array(p_xy, dtype=float), np.array(e_xy, dtype=float))


class TestAssign:
    def test_nearest_unmatched_evader(self):
        p_xy = [(0.0, 0.0), (0.0, 0.0)]
        e_xy = [(10.0, 0.0), (3.0, 0.0), (5.0, 0.0)]
        assert dg.assign({0: 0}, _dist(p_xy, e_xy), [0, 1, 2]) == {1: 1}

    def test_tie_break_lowest_index(self):
        p_xy = [(0.0, 0.0)]
        e_xy = [(1.0, 0.0), (0.5, 0.0), (4.0, 0.0), (0.1, 0.0), (-4.0, 0.0)]
        assert dg.assign({}, _dist(p_xy, e_xy), [2, 4]) == {0: 2}

    def test_fallback_targets_matched_evader(self):
        p_xy = [(0.0, 0.0), (1.0, 0.0)]
        e_xy = [(2.0, 0.0)]
        matched = {0: 0}
        out = dg.assign(matched, _dist(p_xy, e_xy), [0])
        assert out == {1: 0}
        assert out[1] in matched.values()

    def test_every_pursuer_matched_reads_no_distance(self):
        class Unread(np.ndarray):
            def __getitem__(self, index):
                raise AssertionError("distances read")

        dist = _dist([(0.0, 0.0), (1.0, 0.0)], [(2.0, 0.0), (3.0, 0.0)]).view(Unread)
        assert dg.assign({0: 1, 1: 0}, dist, [0, 1]) == {}
        with pytest.raises(AssertionError, match="distances read"):
            dg.assign({0: 1}, dist, [0, 1])

    def test_matched_evaders_never_duplicated(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            n_p = int(rng.integers(1, 7))
            n_e = int(rng.integers(1, 7))
            pairs = [
                (i, j)
                for i in range(n_p)
                for j in range(n_e)
                if rng.uniform() < 0.5
            ]
            m = dg.max_matching(_graph(n_p, pairs))
            p_xy = rng.normal(size=(n_p, 2))
            e_xy = rng.normal(size=(n_e, 2))
            out = dg.assign(m, dg.pair_distances(p_xy, e_xy), list(range(n_e)))
            assert len(set(m.values())) == len(m)
            fallback = len(m) == n_e
            for i, j in out.items():
                assert i not in m
                if fallback:
                    assert j in m.values()
                else:
                    assert j not in m.values()

    def test_equals_the_hypot_reference(self):
        rng = np.random.default_rng(22)
        kinds = dict.fromkeys(("inactive_nearest", "tie", "all_matched", "all_held"), 0)
        for case in range(500):
            n_p, n_e = (int(v) for v in rng.integers(1, 9, 2))
            if case % 2:
                # on a lattice, with every odd evader the mirror image of
                # the one before it in pursuer 0's vertical: exact ties
                p_xy = rng.integers(-3, 4, (n_p, 2)).astype(float)
                e_xy = rng.integers(-3, 4, (n_e, 2)).astype(float)
                e_xy[1::2, 0] = 2.0 * p_xy[0, 0] - e_xy[0 : n_e - 1 : 2, 0]
                e_xy[1::2, 1] = e_xy[0 : n_e - 1 : 2, 1]
            else:
                p_xy = rng.normal(size=(n_p, 2))
                e_xy = rng.normal(size=(n_e, 2))
            active = [j for j in range(n_e) if rng.uniform() < 0.7]
            pairs = [(i, j) for i in range(n_p) for j in active if rng.uniform() < 0.4]
            matched = dg.max_matching(_graph(n_p, pairs))
            dist = _dist(p_xy, e_xy)
            # an inactive evader's column is never read: make it the nearest
            dist[:, [j for j in range(n_e) if j not in active]] = -1.0
            got = dg.assign(matched, dist, active)
            p_pts = [tuple(v) for v in p_xy.tolist()]
            e_pts = [tuple(v) for v in e_xy.tolist()]
            assert got == _reference_assign(matched, p_pts, e_pts, active), case
            kinds["inactive_nearest"] += len(active) < n_e and len(got) > 0
            kinds["all_matched"] += len(matched) == n_p
            kinds["all_held"] += bool(active) and len(matched) == len(active) < n_p
            pool = [j for j in active if j not in matched.values()] or active
            kinds["tie"] += any(np.sum(dist[i, pool] == dist[i, j]) > 1 for i, j in got.items())
        assert all(count >= 20 for count in kinds.values()), kinds
