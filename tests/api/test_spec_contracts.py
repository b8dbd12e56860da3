"""Digest and batch-key coverage of every ``FloodSpec`` field, by perturbation.

The result cache is addressed by ``spec.digest()`` and the service
coalesces requests by ``spec.batch_key(backend)``.  A field that never
reaches the digest makes two *different* requests alias one cache entry
(the second silently gets the first's answer); a digest field missing
from the batch key lets requests that must run differently share one
micro-batch.  Each test here builds, for every dataclass field, a pair
of specs that differ in exactly that field and checks what the field
actually does to the digest and the batch key:

* the digest changes, unless the field is in ``DIGEST_EXCLUDED``, in
  which case it must not change;
* for digest fields, the batch key changes, unless the field is in
  ``BATCH_KEY_EXCLUDED``, in which case it must not change.

A new field with no entry in :data:`PERTURBATIONS` fails by name, so the
table cannot fall behind the dataclass.
"""

import dataclasses

import pytest

from repro.api import FloodSpec
from repro.api import scenarios
from repro.api.spec import BATCH_KEY_EXCLUDED, DIGEST_EXCLUDED
from repro.fastpath import thinning
from repro.graphs import cycle_graph

GRAPH = cycle_graph(9)
EXTENSION = "contract_probe"

# The base spec: a stochastic variant so that ``stream`` survives
# canonicalisation, and an explicit budget so no field resolves to a
# graph-dependent default.
BASE = dict(
    graph=GRAPH,
    sources=(0,),
    max_rounds=20,
    variant=thinning(0.5, seed=3),
    stream=1,
)

# field -> (overrides applied to BASE on both sides, the changed value).
PERTURBATIONS = {
    "graph": ({}, cycle_graph(11)),
    "sources": ({}, (1,)),
    "max_rounds": ({}, 21),
    "backend": ({}, "pure"),
    "variant": ({}, thinning(0.5, seed=4)),
    # An extension scenario keeps its canonical string (built-ins fold
    # into ``variant``); it excludes a variant and keeps its stream.
    "scenario": ({"variant": None, "stream": 0}, EXTENSION),
    "stream": ({}, 2),
    "collect_senders": ({}, True),
    "collect_receives": ({}, True),
    "cache": ({}, "bypass"),
}

FIELDS = [field.name for field in dataclasses.fields(FloodSpec)]
DIGEST_FIELDS = [name for name in FIELDS if name not in DIGEST_EXCLUDED]


@pytest.fixture(autouse=True)
def extension_scenario():
    scenarios.register_scenario(
        EXTENSION, lambda args, kwargs, spec: (None, EXTENSION)
    )
    try:
        yield
    finally:
        scenarios._BINDERS.pop(EXTENSION, None)


def perturbed_pair(name):
    """Two specs differing in field ``name`` only (checked, not assumed)."""
    if name not in PERTURBATIONS:
        pytest.fail(
            f"FloodSpec field {name!r} has no entry in PERTURBATIONS; add "
            f"a perturbation so its digest and batch-key effect is tested"
        )
    overrides, changed = PERTURBATIONS[name]
    fields = {**BASE, **overrides}
    base = FloodSpec(**fields)
    other = FloodSpec(**{**fields, name: changed})
    for field in FIELDS:
        if field == name:
            assert getattr(base, field) != getattr(other, field), field
        else:
            assert getattr(base, field) == getattr(other, field), field
    return base, other


@pytest.mark.parametrize("name", FIELDS)
def test_every_field_reaches_the_digest_or_is_excluded(name):
    base, other = perturbed_pair(name)
    if name in DIGEST_EXCLUDED:
        assert base.digest() == other.digest(), (
            f"{name!r} is in DIGEST_EXCLUDED but changes the digest"
        )
    else:
        assert base.digest() != other.digest(), (
            f"FloodSpec field {name!r} does not change digest(); two specs "
            f"differing only in it would alias one cache entry"
        )


@pytest.mark.parametrize("name", DIGEST_FIELDS)
def test_every_digest_field_splits_the_batch_key_or_is_excluded(name):
    base, other = perturbed_pair(name)
    if name in BATCH_KEY_EXCLUDED:
        assert base.batch_key("pure") == other.batch_key("pure"), (
            f"{name!r} is in BATCH_KEY_EXCLUDED but changes batch_key()"
        )
    else:
        assert base.batch_key("pure") != other.batch_key("pure"), (
            f"digest field {name!r} does not change batch_key(); requests "
            f"that must run differently would share one micro-batch"
        )


def test_exclusion_sets_name_real_fields():
    assert DIGEST_EXCLUDED <= set(FIELDS)
    assert BATCH_KEY_EXCLUDED <= set(DIGEST_FIELDS)
