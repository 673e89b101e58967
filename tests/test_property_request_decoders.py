"""Hypothesis pass over the HTTP request decoders, driven in-process.

``QueryService.handle_query`` / ``handle_estimate`` take the decoded
JSON body of ``POST /query`` / ``POST /estimate``. The HTTP handler
answers ``ValueError`` / ``KeyError`` / ``TypeError`` with 400 and any
other exception with 500, so for every JSON-shaped body a handler must
either raise one of those three or return a body that survives strict
JSON encoding — and, for ``/query``, that ``QueryResult.from_dict``
accepts. Fields are drawn from arbitrary JSON values (huge integers,
non-finite floats, strings, nested arrays and objects) mixed with
well-formed ones, so most examples reach the engine.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.sketch import CorrelationSketch
from repro.correlation import ESTIMATORS
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.index.engine import QueryResult
from repro.ranking.scoring import SCORER_NAMES
from repro.serving import QueryService, QuerySession

BAD_REQUEST = (ValueError, KeyError, TypeError)
UNIVERSE = 60
IDS = [f"pair{i}" for i in range(6)]


@pytest.fixture(scope="module")
def service():
    rng = np.random.default_rng(3)
    hasher = KeyHasher()
    catalog = SketchCatalog(sketch_size=32, hasher=hasher)
    catalog.add_sketches(
        (
            sid,
            CorrelationSketch.from_columns(
                rng.choice(UNIVERSE, 40, replace=False),
                rng.standard_normal(40),
                32,
                hasher=hasher,
            ),
        )
        for sid in IDS
    )
    service = QueryService(QuerySession.for_catalog(catalog))
    yield service
    service.stop()


numbers = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),  # Python's json.loads reads NaN / Infinity literals
)
text = st.text("ab\u00e9\u4e2d\x00", max_size=4)
scalars = st.one_of(st.none(), st.booleans(), numbers, text)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(text, inner, max_size=3),
    ),
    max_leaves=4,
)
keys = st.one_of(st.integers(0, UNIVERSE), text, json_values)
values = st.one_of(
    st.floats(-10, 10, allow_nan=False), st.floats(allow_nan=True), json_values
)


@st.composite
def columns(draw):
    """A ``{"keys", "values"}`` object: usually two equal-length arrays
    of plausible cells, sometimes anything at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.dictionaries(st.sampled_from(["keys", "values"]), json_values))
    n = draw(st.integers(0, 12))
    return {
        "keys": draw(st.lists(keys, min_size=n, max_size=n)),
        "values": draw(st.lists(values, min_size=n, max_size=n)),
    }


def optional(strategy):
    """A field that is absent, well-formed, or any JSON value."""
    return st.one_of(st.just(...), strategy, json_values)


def _payload(body: dict, **fields) -> dict:
    body = dict(body)
    body.update({name: v for name, v in fields.items() if v is not ...})
    return body


def _assert_wire_safe(body) -> None:
    json.dumps(body, allow_nan=False)


@given(
    body=columns(),
    k=optional(st.integers(-2, 12)),
    scorer=optional(st.sampled_from(SCORER_NAMES)),
    exclude_id=optional(st.sampled_from(IDS)),
    name=optional(text),
    trace=optional(st.booleans()),
)
@example(
    body={"keys": ["a", "b"], "values": [10**400, 1.0]},
    k=..., scorer=..., exclude_id=..., name=..., trace=...,
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_handle_query_answers_or_raises_a_bad_request(
    service, body, k, scorer, exclude_id, name, trace
):
    payload = _payload(
        body, k=k, scorer=scorer, exclude_id=exclude_id, name=name, trace=trace
    )
    try:
        result = service.handle_query(payload)
    except BAD_REQUEST:
        return
    _assert_wire_safe(result)
    QueryResult.from_dict(result)


@given(left=columns(), right=columns(), estimator=optional(st.sampled_from(sorted(ESTIMATORS))))
@example(
    left={"keys": ["a"], "values": [-(10**400)]},
    right={"keys": ["a"], "values": [1.0]},
    estimator=...,
)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_handle_estimate_answers_or_raises_a_bad_request(
    service, left, right, estimator
):
    payload = _payload({"left": left, "right": right}, estimator=estimator)
    try:
        result = service.handle_estimate(payload)
    except BAD_REQUEST:
        return
    _assert_wire_safe(result)
    assert "correlation" in result
