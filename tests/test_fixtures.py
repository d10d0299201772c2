import pytest

from cpgraphs import fixtures as fx
from cpgraphs.errors import InputError
from cpgraphs.crosschecks import is_connected
from cpgraphs.graphs import build_cp_graph
from cpgraphs.sequences import NeighborhoodSequence, NonLeapingSequence


def test_all_fixtures_load_and_connect():
    assert set(fx.FIXTURE_NAMES) == {
        "two_tree_6a",
        "two_tree_6b",
        "two_tree_6c",
        "cp8_chain",
        "cp8_hub",
        "c5_cp8_chain",
        "c5_cp8_hub",
        "seesaw_cp",
    }
    for name in fx.FIXTURE_NAMES:
        g = fx.fixture_graph(name)
        assert is_connected(g)
        assert g.n >= 6


def test_unknown_fixture():
    with pytest.raises(InputError):
        fx.fixture_graph("nope")


def test_cp8_fixture_files_match_construction():
    # the files' equality with these constructions is the fixtures suite's
    # check (tier-1: test_cli.py::test_check_all_default_counts)
    s = NonLeapingSequence(fx.CP8_SEQ)
    chain = build_cp_graph(NeighborhoodSequence(s, fx.CP8_CHAIN_ANCHORS))
    hub = build_cp_graph(NeighborhoodSequence(s, fx.CP8_HUB_ANCHORS))
    assert chain != hub


def test_recorded_matrices_are_consistent():
    s = NonLeapingSequence(fx.CP8_SEQ)
    assert fx.CP8_CHAIN_DISTANCES.is_symmetric()
    assert fx.CP8_HUB_DISTANCES.is_symmetric()
    assert fx.CP8_REDUCED_ADJACENCY.is_symmetric()
    assert fx.CP8_CHAIN_DISTANCES.n == fx.CP8_HUB_DISTANCES.n == s.n
    # the two members share no distance matrix but reduce to one matrix
    assert fx.CP8_CHAIN_DISTANCES != fx.CP8_HUB_DISTANCES
