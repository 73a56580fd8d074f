"""The library names the benchmark harness under ``perfbench/`` reads.

The harness traces functions by looking them up by name, builds its
workloads from a few public helpers and checks what ``build_graph`` and
``max_matching`` return.  A rename or a fold that breaks it fails here,
without running the benchmark.  ``perfbench`` is only imported, never
changed.
"""

import ast
import importlib
from pathlib import Path

import dubinsguard as dg
from conftest import make_state
from dubinsguard import certificates, cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_is_a_callable_of_its_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans.TRACED
    for mod_name, fn_name in spans.TRACED:
        module = importlib.import_module(f"dubinsguard.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_every_name_the_workloads_read_exists():
    # every attribute read off ``certificates``, ``cli`` or ``GameParams``
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    owners = {"certificates": certificates, "cli": cli, "GameParams": dg.GameParams}
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in owners
    }
    called = {
        ("certificates", "curvature_demand"),
        ("certificates", "sample_adjust_feasible_state"),
        ("GameParams", "from_alpha"),
        ("cli", "scenario_to_doc"),
        ("cli", "load_scenario"),
    }
    assert called <= read
    for owner, name in read:
        assert hasattr(owners[owner], name), f"{owner}.{name}"
    for owner, name in called:
        assert callable(getattr(owners[owner], name)), f"{owner}.{name}"


def test_build_graph_edges_are_certificates_with_their_clearance(paper):
    # the check pass reads every two-step edge's clearance from
    # ``build_graph``'s edges, and matches on ``edges`` and ``n_pursuers``
    states = {(0, 0): make_state(4.7, 0.65, 0.0, 5.2, 0.32)}
    graph = dg.build_graph(states, {(0, 0): paper}, 1)
    cert = graph.edges[0, 0]
    assert isinstance(cert, dg.Certificate)
    assert cert.kind is dg.CertificateKind.TWO_STEP
    assert isinstance(cert.evidence.clearance, float) and cert.evidence.clearance >= 0.0
    assert graph.n_pursuers == 1 and dg.max_matching(graph) == {0: 0}
