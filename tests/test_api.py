"""The settings of the public API: every keyword parameter of a public
function is pinned here, so adding or removing one is a deliberate change."""

import inspect

import monobound

# Public function -> its parameters that have a default value.
KEYWORD_PARAMETERS = {"bisection_vstar": ["abs_tol"], "parse_matrix": ["name"]}


def test_public_keyword_parameters_are_pinned():
    found = {}
    for name in monobound.__all__:
        obj = getattr(monobound, name)
        if not inspect.isfunction(obj):
            continue
        params = inspect.signature(obj).parameters.values()
        defaulted = [p.name for p in params if p.default is not p.empty]
        if defaulted:
            found[name] = defaulted
    assert found == KEYWORD_PARAMETERS
