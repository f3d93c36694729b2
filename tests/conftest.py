import pytest
from hypothesis import settings

from mmreg import Graph, bag_of, make_spec

# The same examples on every machine and run, whatever .hypothesis/ holds.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def fig1_graph():
    return Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])


@pytest.fixture
def fig1_spec(fig1_graph):
    return make_spec(graph=fig1_graph, writer=1)


@pytest.fixture
def singleton5_spec():
    return make_spec(bag=bag_of(5, [1], [2], [3], [4], [5]), writer=1)


@pytest.fixture
def full4_spec():
    return make_spec(bag=bag_of(4, [1, 2, 3, 4]), writer=1)


@pytest.fixture
def msg3_spec():
    """Pure message-passing system with three processes."""
    return make_spec(bag=bag_of(3, [1], [2], [3]), writer=1)
