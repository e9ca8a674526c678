"""Property tests for scheme serialization on random star/pisces forests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from vcgame.game import VertexCoverGame, mask_coalition
from vcgame.pmas import construct_pmas, scheme_from_json, scheme_to_json, verify_pmas

from oracles import random_star_pisces_forest, reference_verify_pmas


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_scheme_json_round_trip_keeps_allocations_and_verdict(rng):
    g = random_star_pisces_forest(rng, max_edges=8)
    scheme = construct_pmas(g)
    loaded = scheme_from_json(g, scheme_to_json(scheme))
    for mask in range(1, 1 << g.n_edges):
        s = mask_coalition(mask)
        assert loaded.allocation(s) == scheme.allocation(s)
    game = VertexCoverGame(g)
    assert verify_pmas(game, loaded) == reference_verify_pmas(game, loaded) == (True, None)
