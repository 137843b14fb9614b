"""``Objective.derivatives`` is bitwise the term-order sum of its terms'
jets, for every order, for one point and a batch, with and without
attribution, over any active list."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from escm.engine import Objective, Point
from tests.genmodels import random_interior_point, random_smooth_model


def _reference(objective: Objective, point: Point, active, order: int):
    """grad, hess, third and owner_hess as a loop over the terms: each term
    that reads an active coordinate adds its ``term_jet``, dense over the
    active coordinates it reads, into the positions they take."""
    refs = list(dict.fromkeys(range(objective.dim) if active is None else active))
    slot = {ref: j for j, ref in enumerate(refs)}
    k, batch = len(refs), point.x.shape[1:]
    grad = np.zeros((k,) + batch)
    hess = np.zeros((k, k) + batch) if order >= 2 else None
    third = np.zeros((k, k, k) + batch) if order >= 3 else None
    owner_hess = {}
    for term in objective.terms:
        term_active = [r for r in term.refs if r in slot]
        if not term_active:
            continue
        _, term_grad, term_hess, term_third = objective.term_jet(term, point, term_active, order)
        g = np.array([slot[r] for r in term_active])
        grad[g] += term_grad
        if order >= 2:
            hess[np.ix_(g, g)] += term_hess
            owner_hess.setdefault(term.owner, np.zeros((k, k) + batch))[np.ix_(g, g)] += term_hess
        if order >= 3:
            third[np.ix_(g, g, g)] += term_third
    return refs, grad, hess, third, owner_hess


def _same(got, want) -> bool:
    if want is None:
        return got is None
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 3),
       batch=st.sampled_from([None, 3]), attribution=st.booleans(),
       picks=st.one_of(st.none(), st.lists(st.integers(0, 63), max_size=10)))
@example(seed=5, order=3, batch=None, attribution=True, picks=[])
@example(seed=5, order=3, batch=3, attribution=True, picks=[0, 0, 1, 0])
@example(seed=7, order=2, batch=None, attribution=True, picks=[3, 1, 3, 1, 2])
def test_derivatives_are_bitwise_the_term_order_sum_of_term_jets(seed, order, batch,
                                                                 attribution, picks):
    rng = np.random.default_rng(seed)
    model = random_smooth_model(rng, max_nodes=5)
    objective = Objective.from_model(model)
    if batch is None:
        point = random_interior_point(rng, model)
    else:
        columns = [random_interior_point(rng, model).x for _ in range(batch)]
        point = Point.from_flat(model, np.stack(columns, axis=1))
    active = None if picks is None else [p % model.dim for p in picks]

    got = objective.derivatives(point, order=order, attribution=attribution, active=active)
    refs, grad, hess, third, owner_hess = _reference(objective, point, active, order)
    assert list(got.active) == refs
    assert _same(got.grad, grad) and _same(got.hess, hess) and _same(got.third, third)
    if not attribution:
        assert got.owner_hess is None
    else:
        # owners in the order of their first evaluated term
        assert list(got.owner_hess) == list(owner_hess)
        assert all(_same(got.owner_hess[owner], block) for owner, block in owner_hess.items())
