"""A Redis-like in-memory key-value store with server-side scripts.

Faithfully models the two properties that drive the paper's Fig. 2a
crossover and the "Crucial + Redis" line of Fig. 5:

* the server is **single-threaded** — every command, including Lua
  scripts, runs to completion on one event loop, so concurrent complex
  operations serialize (``workers=1`` per shard);
* the optimized C core gives a very low fixed per-command cost, so for
  trivial commands Redis beats the JVM-based DSO layer.

Scripts are the stand-in for Lua: a registered Python function that
runs against the shard's data dictionary, with an explicit CPU-cost
model (scripts are charged ``script_overhead + cost``), because the
*timing* of the computation — not its result — is what the simulation
must get right.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.node import Node
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import NoSuchKeyError
from repro.metrics.cost import CostLedger
from repro.net.network import Network, payload_size
from repro.rpc.server import RpcServer
from repro.simulation.kernel import Kernel
from repro.storage.backend import BackendStats, copy_sized, memory_profile


@dataclass(frozen=True)
class Script:
    """A server-side script: ``fn(data, key, *args) -> result``.

    ``cost(*args)`` returns the CPU seconds the script burns on the
    event loop (beyond the fixed script overhead).
    """

    fn: Callable[..., Any]
    cost: Callable[..., float] = staticmethod(lambda *args: 0.0)


class _Shard:
    """One single-threaded Redis server process."""

    def __init__(self, kernel: Kernel, network: Network, name: str,
                 config: Config):
        self.config = config
        self.node = Node(kernel, network, name, workers=1)
        self.data: dict[str, Any] = {}
        self.server = RpcServer(self.node)
        self.server.register("get", self._get)
        self.server.register("set", self._set)
        self.server.register("del", self._del)
        self.server.register("exists", self._exists)
        self.server.register("keys", self._keys)
        self.server.register("incrby", self._incrby)
        self.server.register("script", self._script)
        self._scripts: dict[str, Script] = {}

    def _get(self, call, key):
        call.service(self.config.redis.get_service)
        if key not in self.data:
            raise NoSuchKeyError(f"redis: no such key {key!r}")
        return self.data[key]

    def _set(self, call, key, value):
        call.service(self.config.redis.put_service)
        self.data[key] = value

    def _del(self, call, key):
        call.service(self.config.redis.put_service)
        self.data.pop(key, None)

    def _exists(self, call, key):
        call.service(self.config.redis.get_service)
        return key in self.data

    def _keys(self, call, prefix):
        call.service(self.config.redis.get_service)
        return [key for key in self.data if key.startswith(prefix)]

    def _incrby(self, call, key, amount):
        call.service(self.config.redis.put_service)
        value = self.data.get(key, 0) + amount
        self.data[key] = value
        return value

    def _script(self, call, name, key, args):
        script = self._scripts.get(name)
        if script is None:
            raise NoSuchKeyError(f"redis: script {name!r} not loaded")
        call.service(self.config.redis.script_overhead
                     + script.cost(*args))
        return script.fn(self.data, key, *args)


class RedisCluster:
    """A client-sharded Redis deployment (N independent servers)."""

    def __init__(self, kernel: Kernel, network: Network, shards: int = 1,
                 config: Config = DEFAULT_CONFIG, name: str = "redis"):
        if shards <= 0:
            raise ValueError(f"shards must be positive: {shards}")
        self.kernel = kernel
        self.network = network
        self.config = config
        self.name = name
        self.shards = [
            _Shard(kernel, network, f"{name}-{i}", config)
            for i in range(shards)
        ]
        latency = config.redis.client_server
        for shard in self.shards:
            for other in self.shards:
                if shard is not other:
                    network.set_link(shard.node.name, other.node.name, latency)

    def _shard(self, key: str) -> _Shard:
        digest = hashlib.blake2b(repr(key).encode(), digest_size=4).digest()
        return self.shards[int.from_bytes(digest, "big") % len(self.shards)]

    def _connect(self, client: str, shard: _Shard) -> None:
        self.network.ensure_endpoint(client)
        latency = self.config.redis.client_server
        if self.network.link(client, shard.node.name) is not latency:
            self.network.set_link(client, shard.node.name, latency)

    # -- client API ------------------------------------------------------------

    def get(self, client: str, key: str) -> Any:
        shard = self._shard(key)
        self._connect(client, shard)
        return shard.server.call(client, "get", key)

    def set(self, client: str, key: str, value: Any) -> None:
        shard = self._shard(key)
        self._connect(client, shard)
        shard.server.call(client, "set", key, value)

    def incrby(self, client: str, key: str, amount: int = 1) -> int:
        shard = self._shard(key)
        self._connect(client, shard)
        return shard.server.call(client, "incrby", key, amount)

    def register_script(self, name: str, script: Script) -> None:
        """Load a script on every shard (SCRIPT LOAD)."""
        for shard in self.shards:
            shard._scripts[name] = script

    def eval_script(self, client: str, name: str, key: str, *args) -> Any:
        """EVALSHA: run a loaded script against ``key``'s shard."""
        shard = self._shard(key)
        self._connect(client, shard)
        return shard.server.call(client, "script", name, key, args)

    def delete(self, client: str, key: str) -> None:
        """DEL (idempotent)."""
        shard = self._shard(key)
        self._connect(client, shard)
        shard.server.call(client, "del", key)

    def exists(self, client: str, key: str) -> bool:
        """EXISTS."""
        shard = self._shard(key)
        self._connect(client, shard)
        return shard.server.call(client, "exists", key)

    def keys(self, client: str, prefix: str = "") -> list[str]:
        """KEYS ``prefix*``, fanned out to every shard."""
        found: list[str] = []
        for shard in self.shards:
            self._connect(client, shard)
            found.extend(shard.server.call(client, "keys", prefix))
        return sorted(found)

    def seed(self, key: str, value: Any) -> None:
        """Place ``key`` on its shard without charging the data path
        (pre-existing data; host-callable)."""
        self._shard(key).data[key] = value

    def backend(self, client: str = "client",
                ledger: CostLedger | None = None) -> "RedisBackend":
        """A :class:`repro.storage.backend.StorageBackend` view of
        this deployment for one client endpoint."""
        return RedisBackend(self, client=client, ledger=ledger)


class RedisBackend:
    """Protocol adapter: a RedisCluster as a priced in-memory tier.

    Requests delegate to the sharded RPC path (latency charged by the
    shards, never twice); the view adds per-request stats, RAM rent at
    the in-memory tier rate, and nominal-size tracking.
    """

    def __init__(self, cluster: RedisCluster, client: str = "client",
                 ledger: CostLedger | None = None):
        self.cluster = cluster
        self.kernel = cluster.kernel
        self.client = client
        self.name = cluster.name
        self.profile = memory_profile(cluster.config, cluster.name)
        self.profile.validate()
        self.ledger = ledger if ledger is not None else CostLedger()
        self.ledger.attach(self)
        self.stats = BackendStats()
        self._nbytes: dict[str, int] = {}
        self._resting_bytes = 0
        self._last_settle = self.kernel.now

    # -- billing ------------------------------------------------------------

    def settle(self) -> None:
        now = self.kernel.now
        elapsed = now - self._last_settle
        if elapsed > 0 and self._resting_bytes > 0:
            byte_seconds = self._resting_bytes * elapsed
            self.ledger.occupancy(
                self.name, self.profile.tier, byte_seconds,
                self.profile.storage_dollars(byte_seconds))
        self._last_settle = now

    def _charge(self, dollars: float, count_attr: str) -> None:
        setattr(self.stats, count_attr, getattr(self.stats, count_attr) + 1)
        self.stats.request_dollars += dollars
        self.ledger.request(self.name, self.profile.tier, dollars)

    def _account(self, key: str, nbytes: int | None) -> None:
        self.settle()
        self._resting_bytes -= self._nbytes.pop(key, 0)
        if nbytes is not None:
            self._nbytes[key] = nbytes
            self._resting_bytes += nbytes

    # -- data path ----------------------------------------------------------

    def put(self, key: str, value: Any, nbytes: int | None = None) -> None:
        if nbytes is None:
            nbytes = payload_size(value)
        self.cluster.set(self.client, key, value)
        self._account(key, nbytes)
        self._charge(self.profile.put_request_dollars, "puts")
        self.stats.bytes_written += nbytes

    def get(self, key: str) -> Any:
        value = self.cluster.get(self.client, key)
        self._charge(self.profile.get_request_dollars, "gets")
        self.stats.bytes_read += self._nbytes.get(key, 0)
        return value

    def delete(self, key: str) -> None:
        self.cluster.delete(self.client, key)
        self._account(key, None)
        self._charge(self.profile.put_request_dollars, "deletes")

    def list_prefix(self, prefix: str) -> list[str]:
        found = self.cluster.keys(self.client, prefix)
        self._charge(self.profile.get_request_dollars, "lists")
        return found

    def exists(self, key: str) -> bool:
        found = self.cluster.exists(self.client, key)
        self._charge(self.profile.get_request_dollars, "heads")
        return found

    # -- free paths ---------------------------------------------------------

    def seed(self, key: str, value: Any, nbytes: int | None = None) -> None:
        value, nbytes = copy_sized(value, nbytes)
        self.cluster.seed(key, value)
        self._account(key, nbytes)

    def size(self) -> int:
        return len(self._nbytes)

    def stored_bytes(self) -> int:
        return self._resting_bytes
