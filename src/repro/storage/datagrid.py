"""An Infinispan-like in-memory data grid (plain key-value mode).

This is the *raw* Infinispan row of Table 2 and the "in-memory
key-value store" polling baseline of Fig. 6: a partitioned,
multi-threaded KV grid with sub-millisecond operations.  The DSO layer
(:mod:`repro.dso`) is built as an object layer **on top of** this kind
of grid, with extra dispatch cost; keeping the plain-KV path separate
lets the benchmarks compare both, as the paper does.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.node import Node
from repro.config import Config, DEFAULT_CONFIG
from repro.errors import NoSuchKeyError
from repro.metrics.cost import CostLedger
from repro.net.network import Network, payload_size
from repro.rpc.server import RpcServer
from repro.simulation.kernel import Kernel
from repro.storage.backend import BackendStats, copy_sized, memory_profile


class _GridNode:
    def __init__(self, kernel: Kernel, network: Network, name: str,
                 config: Config):
        self.config = config
        self.node = Node(kernel, network, name,
                         workers=config.grid.node_workers)
        self.data: dict[str, Any] = {}
        self.server = RpcServer(self.node)
        self.server.register("get", self._get)
        self.server.register("put", self._put)
        self.server.register("remove", self._remove)
        self.server.register("contains", self._contains)
        self.server.register("keys", self._keys)

    def _get(self, call, key):
        call.service(self.config.grid.get_service)
        if key not in self.data:
            raise NoSuchKeyError(f"grid: no such key {key!r}")
        return self.data[key]

    def _put(self, call, key, value):
        call.service(self.config.grid.put_service)
        self.data[key] = value

    def _remove(self, call, key):
        call.service(self.config.grid.put_service)
        self.data.pop(key, None)

    def _contains(self, call, key):
        call.service(self.config.grid.get_service)
        return key in self.data

    def _keys(self, call, prefix):
        call.service(self.config.grid.get_service)
        return [key for key in self.data if key.startswith(prefix)]


class DataGrid:
    """A partitioned in-memory KV store with consistent hashing."""

    def __init__(self, kernel: Kernel, network: Network, nodes: int = 1,
                 config: Config = DEFAULT_CONFIG, name: str = "grid"):
        if nodes <= 0:
            raise ValueError(f"nodes must be positive: {nodes}")
        self.kernel = kernel
        self.network = network
        self.config = config
        self.name = name
        self.grid_nodes = [
            _GridNode(kernel, network, f"{name}-{i}", config)
            for i in range(nodes)
        ]
        self.ring = ConsistentHashRing(
            [gn.node.name for gn in self.grid_nodes])
        self._by_name = {gn.node.name: gn for gn in self.grid_nodes}

    def _owner(self, key: str) -> _GridNode:
        return self._by_name[self.ring.lookup(key)]

    def _connect(self, client: str, grid_node: _GridNode) -> None:
        self.network.ensure_endpoint(client)
        latency = self.config.grid.client_server
        if self.network.link(client, grid_node.node.name) is not latency:
            self.network.set_link(client, grid_node.node.name, latency)

    # -- client API ----------------------------------------------------------------

    def get(self, client: str, key: str) -> Any:
        owner = self._owner(key)
        self._connect(client, owner)
        return owner.server.call(client, "get", key)

    def put(self, client: str, key: str, value: Any) -> None:
        owner = self._owner(key)
        self._connect(client, owner)
        owner.server.call(client, "put", key, value)

    def remove(self, client: str, key: str) -> None:
        owner = self._owner(key)
        self._connect(client, owner)
        owner.server.call(client, "remove", key)

    def contains(self, client: str, key: str) -> bool:
        owner = self._owner(key)
        self._connect(client, owner)
        return owner.server.call(client, "contains", key)

    def keys(self, client: str, prefix: str = "") -> list[str]:
        """Scan every node for keys under ``prefix`` (one RPC each)."""
        found: list[str] = []
        for grid_node in self.grid_nodes:
            self._connect(client, grid_node)
            found.extend(grid_node.server.call(client, "keys", prefix))
        return sorted(found)

    def seed(self, key: str, value: Any) -> None:
        """Place ``key`` on its owner without charging the data path
        (pre-existing data; host-callable)."""
        self._owner(key).data[key] = value

    def backend(self, client: str = "client",
                ledger: CostLedger | None = None) -> "GridBackend":
        """A :class:`repro.storage.backend.StorageBackend` view of this
        grid for one client endpoint (usable as a TieredStore tier)."""
        return GridBackend(self, client=client, ledger=ledger)


class GridBackend:
    """Protocol adapter: a DataGrid as a priced in-memory tier.

    Requests delegate to the grid's RPC path — latency is charged by
    the grid itself (network hops + service time), never twice — while
    this view adds the backend bookkeeping: per-request stats, RAM
    rent at the in-memory tier rate, and nominal-size tracking so 100
    GB objects bill correctly without being materialized.
    """

    def __init__(self, grid: DataGrid, client: str = "client",
                 ledger: CostLedger | None = None):
        self.grid = grid
        self.kernel = grid.kernel
        self.client = client
        self.name = grid.name
        self.profile = memory_profile(grid.config, grid.name)
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
        self.grid.put(self.client, key, value)
        self._account(key, nbytes)
        self._charge(self.profile.put_request_dollars, "puts")
        self.stats.bytes_written += nbytes

    def get(self, key: str) -> Any:
        value = self.grid.get(self.client, key)
        self._charge(self.profile.get_request_dollars, "gets")
        self.stats.bytes_read += self._nbytes.get(key, 0)
        return value

    def delete(self, key: str) -> None:
        self.grid.remove(self.client, key)
        self._account(key, None)
        self._charge(self.profile.put_request_dollars, "deletes")

    def list_prefix(self, prefix: str) -> list[str]:
        found = self.grid.keys(self.client, prefix)
        self._charge(self.profile.get_request_dollars, "lists")
        return found

    def exists(self, key: str) -> bool:
        found = self.grid.contains(self.client, key)
        self._charge(self.profile.get_request_dollars, "heads")
        return found

    # -- free paths ---------------------------------------------------------

    def seed(self, key: str, value: Any, nbytes: int | None = None) -> None:
        value, nbytes = copy_sized(value, nbytes)
        self.grid.seed(key, value)
        self._account(key, nbytes)

    def size(self) -> int:
        return len(self._nbytes)

    def stored_bytes(self) -> int:
        return self._resting_bytes
