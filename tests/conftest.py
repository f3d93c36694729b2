import gc
import warnings
from contextlib import contextmanager

import pytest
from hypothesis import settings

from mmreg import Graph, bag_of, make_spec

# The same examples on every machine and run, whatever .hypothesis/ holds.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# Hypothesis imports this module to report a failing example, and its
# import raises a DeprecationWarning (from mypy_extensions.TypedDict).
# Under filterwarnings = ["error"] that warning, raised inside a report
# hook, stops the whole session; importing it here once, with the
# warning ignored, lets a failing property test fail on its own.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def _collector_settings():
    return gc.isenabled(), gc.get_threshold(), gc.get_debug()


@pytest.fixture(autouse=True)
def gc_hygiene():
    """Fail a test that changes the cyclic collector's settings or leaves
    objects in gc.garbage, after putting both back for the next test.
    gc.callbacks is not compared: hypothesis may install its own."""
    before = _collector_settings()
    yield
    after = _collector_settings()
    garbage = len(gc.garbage)
    gc.garbage.clear()
    enabled, threshold, debug = before
    (gc.enable if enabled else gc.disable)()
    gc.set_threshold(*threshold)
    gc.set_debug(debug)
    assert after == before, f"the test changed the collector's (enabled, threshold, debug) from {before} to {after}"
    assert not garbage, f"the test left {garbage} object(s) in gc.garbage"


@contextmanager
def _cyclic_garbage():
    """Run the block with the collector off, and yield a list that on
    exit holds the cyclic garbage the block made: what a collection then
    finds unreachable, kept by DEBUG_SAVEALL."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    garbage = []
    try:
        yield garbage
        flags = gc.get_debug()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage.extend(gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def cyclic_garbage():
    """`with cyclic_garbage() as garbage:` leaves in `garbage` every
    object of a reference cycle that the block's code dropped."""
    return _cyclic_garbage


@contextmanager
def _collector(on: bool):
    """The collector switched on or off for the block, then put back."""
    enabled = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if enabled else gc.disable)()


@pytest.fixture
def collector():
    """`with collector(on):` runs the block with the cyclic collector
    on or off, then puts back the state it found."""
    return _collector


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
