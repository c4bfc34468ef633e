"""A point-to-point message-passing network with failures.

Endpoints register by name.  A *transfer* charges the calling simulated
thread the sampled link latency; reachability honours endpoint
liveness and the current partition set.  Payloads cross the network by
``pickle`` round-trip (see :func:`ship`) so no mutable Python reference
leaks between simulated nodes — the discipline that lets the DSO layer
legitimately claim distributed-memory semantics.

A transfer marshals its payload in one pass (:func:`ship_sized`): one
``pickle.dumps`` whose length is the charged size and whose
``pickle.loads`` is the delivered copy.  Values of exact type ``int``,
``float``, ``bool``, ``str``, ``bytes`` or ``None`` hold nothing
mutable, so they are delivered as-is (still charged their pickle
length); subclasses of those types round-trip like any other object.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.errors import NetworkError, SerializationError
from repro.net.latency import LatencyModel
from repro.simulation.kernel import Kernel, current_thread


#: Exact types with nothing mutable to copy: :func:`ship` passes them
#: through.  Subclasses are not listed; they may carry instance state.
_SCALARS = frozenset((int, float, bool, str, bytes, type(None)))


def ship(value: Any) -> Any:
    """Copy ``value`` as if it were serialized onto the wire.

    Raises :class:`SerializationError` for values that do not survive
    a pickle round-trip, exactly as Crucial requires shared objects and
    method arguments to be serializable for marshalling.
    """
    if type(value) in _SCALARS:
        return value
    return ship_sized(value)[0]


def ship_sized(value: Any) -> tuple[Any, int]:
    """``(ship(value), payload_size(value))`` from one pickle pass."""
    try:
        data = pickle.dumps(value)
        if type(value) in _SCALARS:
            return value, len(data)
        return pickle.loads(data), len(data)
    except Exception as exc:  # pickle raises a zoo of types
        raise SerializationError(f"value is not serializable: {exc!r}") from exc


def payload_size(value: Any) -> int:
    """Wire size of a value, in bytes (its pickle length).

    Raises :class:`SerializationError` for unpicklable values, like
    :func:`ship` does.  It used to return 0 instead, which silently
    under-charged transfer latency for exactly the payloads that could
    never have crossed a real wire — callers sized the transfer as
    free and then (with ``copy_messages`` on) failed later in
    :func:`ship`, or (with it off) not at all.
    """
    try:
        return len(pickle.dumps(value))
    except Exception as exc:  # pickle raises a zoo of types
        raise SerializationError(f"value is not serializable: {exc!r}") from exc


class Endpoint:
    """A network-attached process (server node, client, service)."""

    def __init__(self, name: str):
        self.name = name
        self.alive = True
        #: Incremented on every crash; in-flight calls compare epochs to
        #: detect that the server died under them.
        self.epoch = 0

    def crash(self) -> None:
        self.alive = False
        self.epoch += 1

    def restart(self) -> None:
        self.alive = True

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<Endpoint {self.name} {state} epoch={self.epoch}>"


class Network:
    """Latency-modelled connectivity between named endpoints."""

    def __init__(self, kernel: Kernel, default_latency: LatencyModel,
                 copy_messages: bool = True, name: str = "net"):
        self.kernel = kernel
        self.default_latency = default_latency
        self.copy_messages = copy_messages
        self.name = name
        self._endpoints: dict[str, Endpoint] = {}
        self._links: dict[tuple[str, str], LatencyModel] = {}
        self._partitions: set[frozenset[str]] = set()
        self._drop_rates: dict[tuple[str, str], float] = {}
        self._rng = kernel.rng.stream(f"net.{name}")
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0

    # -- topology -----------------------------------------------------------

    def register(self, name: str) -> Endpoint:
        if name in self._endpoints:
            raise NetworkError(f"endpoint {name!r} already registered")
        endpoint = Endpoint(name)
        self._endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise NetworkError(f"unknown endpoint {name!r}") from None

    def ensure_endpoint(self, name: str) -> Endpoint:
        """Register ``name`` if unknown; idempotent (used by clients)."""
        existing = self._endpoints.get(name)
        if existing is not None:
            return existing
        return self.register(name)

    def set_link(self, src: str, dst: str, model: LatencyModel,
                 symmetric: bool = True) -> None:
        """Override the latency model of one link."""
        self._links[(src, dst)] = model
        if symmetric:
            self._links[(dst, src)] = model

    def link(self, src: str, dst: str) -> LatencyModel:
        return self._links.get((src, dst), self.default_latency)

    # -- failures -------------------------------------------------------------

    def partition(self, group_a: set[str], group_b: set[str]) -> None:
        """Disconnect every pair across the two groups."""
        for a in group_a:
            for b in group_b:
                self._partitions.add(frozenset((a, b)))

    def unpartition(self, group_a: set[str], group_b: set[str]) -> None:
        """Reconnect the pairs a matching :meth:`partition` cut.

        Unlike :meth:`heal`, other partitions stay in force, so
        overlapping injected partitions compose.
        """
        for a in group_a:
            for b in group_b:
                self._partitions.discard(frozenset((a, b)))

    def heal(self) -> None:
        self._partitions.clear()

    def set_drop_rate(self, src: str, dst: str, rate: float,
                      symmetric: bool = True) -> None:
        """Drop each message on the link with probability ``rate``.

        A dropped message still charges the sender its link latency
        (the bytes left, they just never arrived), then surfaces as a
        :class:`NetworkError` — indistinguishable, to the sender, from
        the destination failing mid-flight, which is what forces the
        upper layers' retry paths.  ``rate=0`` restores the link.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"drop rate {rate} outside [0, 1]")
        pairs = [(src, dst)] + ([(dst, src)] if symmetric else [])
        for pair in pairs:
            if rate == 0.0:
                self._drop_rates.pop(pair, None)
            else:
                self._drop_rates[pair] = rate

    def drop_rate(self, src: str, dst: str) -> float:
        return self._drop_rates.get((src, dst), 0.0)

    def reachable(self, src: str, dst: str) -> bool:
        if src == dst:
            return True
        src_ep = self.endpoint(src)
        dst_ep = self.endpoint(dst)
        if not (src_ep.alive and dst_ep.alive):
            return False
        return frozenset((src, dst)) not in self._partitions

    # -- data plane -------------------------------------------------------------

    def transfer(self, src: str, dst: str, value: Any = None,
                 nbytes: int | None = None) -> Any:
        """Move ``value`` from ``src`` to ``dst``, charging link latency.

        Blocks the calling simulated thread for the sampled delay and
        returns the shipped (copied) value.  Raises
        :class:`NetworkError` if the destination is unreachable at send
        time *or* crashes mid-flight, and :class:`SerializationError`,
        before any latency is charged, if the payload cannot be shipped.
        """
        with self.kernel.tracer.span(
                "net.transfer", kind="internal", endpoint=src,
                attributes={"src": src, "dst": dst}) as span:
            if not self.reachable(src, dst):
                raise NetworkError(f"{dst!r} unreachable from {src!r}")
            if not self.copy_messages:
                shipped = value
                if nbytes is None:
                    nbytes = 0
            elif nbytes is None:
                shipped, nbytes = ship_sized(value)
            else:
                shipped = ship(value)
            span.set("bytes", nbytes)
            delay = self.link(src, dst).sample(self._rng, nbytes)
            rate = self._drop_rates.get((src, dst), 0.0)
            dropped = rate > 0.0 and float(self._rng.random()) < rate
            dst_epoch = self.endpoint(dst).epoch
            current_thread().sleep(delay)
            self.messages_sent += 1
            self.bytes_sent += nbytes
            if dropped:
                self.messages_dropped += 1
                raise NetworkError(f"message {src!r} -> {dst!r} dropped")
            if not self.reachable(src, dst) \
                    or self.endpoint(dst).epoch != dst_epoch:
                raise NetworkError(
                    f"{dst!r} failed during transfer from {src!r}")
            return shipped

    def delay(self, src: str, dst: str, nbytes: int = 0) -> float:
        """Sample a link delay without blocking (for timers)."""
        return self.link(src, dst).sample(self._rng, nbytes)
