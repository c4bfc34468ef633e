"""Unit tests for the network substrate."""

import enum
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import NetworkError, SerializationError
from repro.net import LatencyModel, Network
from repro.net.network import payload_size, ship, ship_sized
from repro.simulation import Kernel
from repro.simulation.thread import now


@pytest.fixture
def kernel():
    with Kernel(seed=13) as k:
        yield k


@pytest.fixture
def network(kernel):
    net = Network(kernel, LatencyModel(0.010))
    net.register("a")
    net.register("b")
    return net


def test_transfer_charges_latency(kernel, network):
    def main():
        network.transfer("a", "b", {"x": 1})
        return now()

    assert kernel.run_main(main) == pytest.approx(0.010)


def test_transfer_copies_payload(kernel, network):
    original = {"nested": [1, 2, 3]}

    def main():
        return network.transfer("a", "b", original)

    shipped = kernel.run_main(main)
    assert shipped == original
    assert shipped is not original
    assert shipped["nested"] is not original["nested"]


def test_transfer_unserializable_payload_rejected(kernel, network):
    def main():
        network.transfer("a", "b", lambda: None)

    with pytest.raises(SerializationError):
        kernel.run_main(main)


def test_transfer_to_dead_endpoint_fails(kernel, network):
    network.endpoint("b").crash()

    def main():
        network.transfer("a", "b", 1)

    with pytest.raises(NetworkError):
        kernel.run_main(main)


def test_crash_mid_flight_fails_transfer(kernel, network):
    kernel.call_later(0.005, network.endpoint("b").crash)

    def main():
        network.transfer("a", "b", 1)

    with pytest.raises(NetworkError):
        kernel.run_main(main)


def test_payload_size_is_pickle_length():
    value = {"nested": [1, 2, 3], "blob": b"x" * 100}
    assert payload_size(value) == len(pickle.dumps(value))


def test_payload_size_rejects_unserializable():
    """Regression: ``payload_size`` used to return 0 for unpicklable
    values, silently sizing the transfer as free for exactly the
    payloads that could never cross a real wire.  It now raises like
    :func:`ship` does."""
    with pytest.raises(SerializationError):
        payload_size(lambda: None)


def test_partition_blocks_both_directions(kernel, network):
    network.partition({"a"}, {"b"})
    assert not network.reachable("a", "b")
    assert not network.reachable("b", "a")
    network.heal()
    assert network.reachable("a", "b")


def test_link_override(kernel, network):
    network.set_link("a", "b", LatencyModel(1.0))

    def main():
        network.transfer("a", "b", None, nbytes=0)
        return now()

    assert kernel.run_main(main) == pytest.approx(1.0)


def test_bandwidth_term(kernel):
    net = Network(kernel, LatencyModel(0.0, bandwidth=1000.0))
    net.register("a")
    net.register("b")

    def main():
        net.transfer("a", "b", None, nbytes=500)
        return now()

    assert kernel.run_main(main) == pytest.approx(0.5)


def test_duplicate_registration_rejected(kernel, network):
    with pytest.raises(NetworkError):
        network.register("a")


def test_unknown_endpoint_rejected(kernel, network):
    with pytest.raises(NetworkError):
        network.endpoint("zzz")


def test_message_accounting(kernel, network):
    def main():
        network.transfer("a", "b", b"xxxx")
        network.transfer("b", "a", b"yyyy")

    kernel.run_main(main)
    assert network.messages_sent == 2
    assert network.bytes_sent > 0


def test_latency_model_mean_and_scaling():
    model = LatencyModel(0.1, sigma=0.0, bandwidth=100.0)
    assert model.mean() == pytest.approx(0.1)
    assert model.mean(nbytes=10) == pytest.approx(0.2)
    assert model.scaled(2.0).base == pytest.approx(0.2)


def test_latency_jitter_is_seeded(kernel):
    model = LatencyModel(0.1, sigma=0.5)
    rng_a = Kernel(seed=1).rng.stream("x")
    rng_b = Kernel(seed=1).rng.stream("x")
    samples_a = [model.sample(rng_a) for _ in range(10)]
    samples_b = [model.sample(rng_b) for _ in range(10)]
    assert samples_a == samples_b
    assert len(set(samples_a)) > 1


# -- the single marshalling pass ---------------------------------------------


def _run_transfer(value):
    """``(delivered, bytes charged)`` for one a -> b transfer."""
    with Kernel(seed=13) as kernel:
        net = Network(kernel, LatencyModel(0.010))
        net.register("a")
        net.register("b")
        delivered = kernel.run_main(lambda: net.transfer("a", "b", value))
        return delivered, net.bytes_sent


def _mutable_ids(value) -> set[int]:
    """Ids of every dict, list and ndarray reachable from ``value``."""
    found = set()
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (dict, list, np.ndarray)):
            found.add(id(item))
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return found


def _same(a, b) -> bool:
    """Structural equality that also compares ndarrays (and their
    dtypes) element-wise."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.floats(allow_nan=False), st.binary(max_size=16),
    arrays(np.float64, st.integers(0, 4),
           elements=st.floats(-1e6, 1e6)))
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(value=_payloads)
def test_transfer_charges_pickle_length_and_delivers_a_disjoint_copy(value):
    delivered, charged = _run_transfer(value)
    assert charged == len(pickle.dumps(value))
    assert _same(delivered, value)
    # The copy shares no mutable object with the original (live ids
    # cannot collide: the original is still referenced).
    assert not _mutable_ids(delivered) & _mutable_ids(value)


@pytest.mark.parametrize("value", [
    2**70, -3, 2.5, True, None, "text", b"\x00raw"])
def test_exact_scalars_pass_through_at_their_pickle_length(value):
    delivered, charged = _run_transfer(value)
    assert delivered is value
    assert charged == len(pickle.dumps(value))
    assert ship(value) is value
    assert ship_sized(value) == (value, len(pickle.dumps(value)))


class Colour(enum.IntEnum):
    RED = 1


class Tagged(str):
    """A ``str`` subclass carrying instance state."""


def test_scalar_subclasses_are_copied():
    tagged = Tagged("payload")
    tagged.note = {"hops": 1}
    delivered, charged = _run_transfer(tagged)
    assert type(delivered) is Tagged
    assert delivered == tagged and delivered is not tagged
    assert delivered.note == {"hops": 1}
    assert delivered.note is not tagged.note
    assert charged == len(pickle.dumps(tagged))
    colour, _ = _run_transfer([Colour.RED])
    assert colour == [Colour.RED] and type(colour[0]) is Colour


def test_unpicklable_payload_fails_before_any_latency(kernel, network):
    def main():
        with pytest.raises(SerializationError):
            network.transfer("a", "b", [lambda: None])
        return now()

    assert kernel.run_main(main) == 0.0
    assert network.messages_sent == 0 and network.bytes_sent == 0


def _refuse():
    raise ValueError("this payload cannot be rebuilt")


class Unloadable:
    """Pickles fine; unpickling calls :func:`_refuse`."""

    def __reduce__(self):
        return _refuse, ()


def test_payload_that_fails_to_unpickle_is_rejected(kernel, network):
    assert payload_size(Unloadable()) > 0

    def main():
        network.transfer("a", "b", {"x": Unloadable()})

    with pytest.raises(SerializationError):
        kernel.run_main(main)
    with pytest.raises(SerializationError):
        ship_sized(Unloadable())
