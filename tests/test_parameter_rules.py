"""Every public callable that takes a speed ratio, a turning radius, a
capture radius or a tolerance refuses values outside the paper's domain
with the rule's message.

The scope is read from the signatures: every callable in
``dubinsguard.__all__`` with a parameter named ``alpha``, ``kappa``, ``r``
or ``tol``, plus the checked kernels outside ``__all__``.  So a new public
function that takes one of them without the rule fails this suite."""

import inspect
import math
import re

import pytest

import dubinsguard as dg
from dubinsguard import geometry

RULE_PARAMS = ("alpha", "kappa", "r", "tol")

#: The rule's message for each parameter, without its ``, got <value>`` tail.
MESSAGES = {
    "alpha": "speed ratio must exceed 1 and be finite",
    "kappa": "kappa must be finite and positive",
    "r": "r must be finite and positive",
    "tol": "tol must be positive and finite",
}

BAD = {
    "alpha": (math.nan, math.inf, -math.inf, 1.0, 0.5, -1.0),
    "kappa": (math.nan, math.inf, -math.inf, 0.0, -1.0),
    "r": (math.nan, math.inf, -math.inf, 0.0, -1.0),
    "tol": (math.nan, math.inf, -math.inf, 0.0, -1.0),
}

#: A valid value for every parameter of the callables in scope: the paper's
#: 5v5 pair, a pair of positions and a polynomial with a root in [lo, hi].
VALID = {
    "alpha": 6.3,
    "kappa": 0.0625,
    "r": 0.1,
    "tol": 1e-12,
    "v_p": 0.3,
    "v_e": 0.3 / 6.3,
    "x_p": (0.0, 1.0),
    "x_e": (0.3, 0.5),
    "x_c": (0.0, 1.0),
    "theta": 0.3,
    "x": 0.0,
    "y": 1.0,
    "u_p": 0.5,
    "dt": 1e-3,
    "poly": dg.Polynomial((-1.0, 1.0)),
    "lo": 0.0,
    "hi": 2.0,
    "f": lambda t: -((t - 0.3) ** 2),
    "a": 0.0,
    "b": 1.0,
    "grid": 8,
}

#: Parameters that deliberately skip the rule, with the reason.
EXEMPT = {
    **{
        (name, param): "feasibility predicate: its r/kappa answers False on NaN, "
        "so no certificate is issued"
        for name in ("intercept_feasible", "adjust_feasible", "two_step_feasible")
        for param in ("r", "kappa")
    },
    ("step_pursuer", "kappa"): "per-step kernel: the scenario's kappa is checked once",
}

#: Callables left out of the scope, with the reason.  (``geometry.lowest_point``,
#: the array kernel whose callers check the pair, is not in ``__all__``.)
EXEMPT_CALLABLES = {"PursuerSpec": "Scenario checks every spec's values"}

EXTRA = {
    "GameParams.from_alpha": dg.GameParams.from_alpha,
    "geometry.aim_point": geometry.aim_point,
    "geometry.aim_height_rate": geometry.aim_height_rate,
}


def _scope():
    funcs = dict(EXTRA)
    for name in sorted(set(dg.__all__) - set(EXEMPT_CALLABLES)):
        obj = getattr(dg, name)
        if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, BaseException)):
            continue
        if any(param in RULE_PARAMS for param in inspect.signature(obj).parameters):
            funcs[name] = obj
    return funcs


SCOPE = _scope()


def _call(func, **overrides):
    kwargs = {}
    for param in inspect.signature(func).parameters.values():
        if param.name in overrides:
            kwargs[param.name] = overrides[param.name]
        elif param.name in VALID:
            kwargs[param.name] = VALID[param.name]
        else:
            assert param.default is not param.empty, f"no valid value for {param.name!r}"
    return func(**kwargs)


CASES = [
    pytest.param(name, param, value, id=f"{name}-{param}-{value}")
    for name, func in SCOPE.items()
    for param in inspect.signature(func).parameters
    if param in RULE_PARAMS and (name, param) not in EXEMPT
    for value in BAD[param]
]


def test_scope_holds_the_named_callables():
    named = {"GameParams", "classify_region", "curvature_demand", "real_roots", "golden_max"}
    assert named | set(EXTRA) <= set(SCOPE)


@pytest.mark.parametrize("name", sorted(SCOPE))
def test_valid_values_are_accepted(name):
    _call(SCOPE[name])


@pytest.mark.parametrize("name, param, value", CASES)
def test_out_of_domain_values_are_refused_with_the_rule_message(name, param, value):
    message = f"{MESSAGES[param]}, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _call(SCOPE[name], **{param: value})
