"""Deployment configuration for multi-process (multi-host) live clusters.

A :class:`DeploymentConfig` is the JSON document operators hand to
``repro replica`` and the multi-process coordinator: one endpoint per replica
(``id`` → ``host:port`` → optional ``region``) plus the client pool's
endpoint.  Every process loads the *same* document, binds only its own
endpoint, and learns every peer's address from the rest — the live twin of
the simulator's implicit "everyone knows everyone" topology.

Regions are carried per endpoint so the emulated geography follows the
deployment file, not the spec: :meth:`DeploymentConfig.geo_model` places
them in the simulator's :class:`~repro.net.latency.GeoLatencyModel`, whose
RTT tables produce the per-sender delay maps
:meth:`AsyncTcpTransport.set_link_delays` installs.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Node id of the client pool in the address book (mirrors
#: :data:`repro.consensus.client.CLIENT_POOL_NODE_ID`; duplicated here so the
#: config module does not drag the consensus stack into replica bootstrap).
CLIENT_NODE_ID = -1


@dataclass
class ReplicaEndpoint:
    """Where one replica process listens, and which region it emulates."""

    replica_id: int
    host: str
    port: int
    region: Optional[str] = None

    def to_dict(self) -> Dict:
        doc: Dict = {"id": self.replica_id, "host": self.host, "port": self.port}
        if self.region is not None:
            doc["region"] = self.region
        return doc

    @staticmethod
    def from_dict(doc: Dict) -> "ReplicaEndpoint":
        try:
            return ReplicaEndpoint(
                replica_id=int(doc["id"]),
                host=str(doc["host"]),
                port=int(doc["port"]),
                region=doc.get("region"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad replica endpoint {doc!r}: {exc}") from exc


@dataclass
class DeploymentConfig:
    """Cluster address book: replica endpoints plus the client endpoint."""

    replicas: List[ReplicaEndpoint]
    client_host: str = "127.0.0.1"
    client_port: int = 0
    client_region: Optional[str] = None
    #: Free-form operator notes carried through serialization untouched.
    notes: Dict = field(default_factory=dict)

    # -------------------------------------------------------------- validation
    def validate(self, n: Optional[int] = None) -> "DeploymentConfig":
        if not self.replicas:
            raise ConfigurationError("deployment config lists no replicas")
        ids = sorted(endpoint.replica_id for endpoint in self.replicas)
        if ids != list(range(len(ids))):
            raise ConfigurationError(
                f"replica ids must be exactly 0..{len(ids) - 1}, got {ids}"
            )
        if n is not None and len(ids) != n:
            raise ConfigurationError(
                f"deployment config lists {len(ids)} replicas but the spec says n={n}"
            )
        seen: Dict[Tuple[str, int], int] = {}
        for endpoint in self.replicas:
            if not 0 < endpoint.port <= 65535:
                raise ConfigurationError(
                    f"replica {endpoint.replica_id} needs a concrete port "
                    f"(multi-process peers cannot discover ephemeral ones), "
                    f"got {endpoint.port}"
                )
            key = (endpoint.host, endpoint.port)
            if key in seen:
                raise ConfigurationError(
                    f"replicas {seen[key]} and {endpoint.replica_id} share "
                    f"endpoint {endpoint.host}:{endpoint.port}"
                )
            seen[key] = endpoint.replica_id
        if not 0 < self.client_port <= 65535:
            raise ConfigurationError(
                f"client endpoint needs a concrete port, got {self.client_port}"
            )
        if (self.client_host, self.client_port) in seen:
            raise ConfigurationError(
                f"client endpoint {self.client_host}:{self.client_port} "
                "collides with a replica endpoint"
            )
        regions = [e.region for e in self.replicas if e.region is not None]
        if regions and len(regions) != len(self.replicas):
            raise ConfigurationError(
                "either every replica endpoint names a region or none does"
            )
        return self

    # ------------------------------------------------------------------ lookup
    @property
    def n(self) -> int:
        return len(self.replicas)

    def endpoint_for(self, replica_id: int) -> ReplicaEndpoint:
        for endpoint in self.replicas:
            if endpoint.replica_id == replica_id:
                return endpoint
        raise ConfigurationError(f"no endpoint for replica {replica_id}")

    def address_book(self) -> Dict[int, Tuple[str, int]]:
        """``node id -> (host, port)`` for every replica plus the client."""
        book = {
            endpoint.replica_id: (endpoint.host, endpoint.port)
            for endpoint in self.replicas
        }
        book[CLIENT_NODE_ID] = (self.client_host, self.client_port)
        return book

    def regions(self) -> Optional[Dict[int, str]]:
        """Replica placement map, or ``None`` when no regions are configured."""
        placement = {
            endpoint.replica_id: endpoint.region
            for endpoint in self.replicas
            if endpoint.region is not None
        }
        return placement or None

    def geo_model(self):
        """The :class:`~repro.net.latency.GeoLatencyModel` of this placement, or ``None``.

        The same RTT tables as the simulator's geo model, so a multi-process
        run reproduces the cross-region figures; the client node sits in
        ``client_region`` (or the model's default when unset).
        """
        placement = self.regions()
        if placement is None:
            return None
        from repro.net.latency import GeoLatencyModel

        if self.client_region is None:
            return GeoLatencyModel(placement)
        return GeoLatencyModel(placement, default_region=self.client_region)

    def link_delays_for(self, node_id: int) -> Optional[Dict[int, float]]:
        """Per-peer one-way delays (seconds) *node_id* should shape, or ``None``."""
        model = self.geo_model()
        return None if model is None else model.link_delays(node_id, self.address_book())

    # --------------------------------------------------------------- serialize
    def to_dict(self) -> Dict:
        doc: Dict = {
            "replicas": [endpoint.to_dict() for endpoint in self.replicas],
            "client": {"host": self.client_host, "port": self.client_port},
        }
        if self.client_region is not None:
            doc["client"]["region"] = self.client_region
        if self.notes:
            doc["notes"] = dict(self.notes)
        return doc

    @staticmethod
    def from_dict(doc: Dict) -> "DeploymentConfig":
        if not isinstance(doc, dict) or "replicas" not in doc:
            raise ConfigurationError(
                "deployment config must be an object with a 'replicas' list"
            )
        client = doc.get("client", {})
        return DeploymentConfig(
            replicas=[ReplicaEndpoint.from_dict(entry) for entry in doc["replicas"]],
            client_host=str(client.get("host", "127.0.0.1")),
            client_port=int(client.get("port", 0)),
            client_region=client.get("region"),
            notes=dict(doc.get("notes", {})),
        ).validate()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @staticmethod
    def load(path: str) -> "DeploymentConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot load deployment config {path!r}: {exc}") from exc
        return DeploymentConfig.from_dict(doc)

    # ----------------------------------------------------------------- factory
    @staticmethod
    def local(
        n: int,
        regions: Optional[Sequence[str]] = None,
        client_region: Optional[str] = None,
        host: str = "127.0.0.1",
    ) -> "DeploymentConfig":
        """A localhost deployment with OS-assigned free ports (tests, CI).

        Ports are reserved by binding-and-releasing, so a rare race with
        another process grabbing the port between reservation and replica
        startup is possible; real deployments write explicit ports instead.
        """
        ports = _free_ports(host, n + 1)
        replicas = [
            ReplicaEndpoint(
                replica_id=replica_id,
                host=host,
                port=ports[replica_id],
                region=regions[replica_id % len(regions)] if regions else None,
            )
            for replica_id in range(n)
        ]
        return DeploymentConfig(
            replicas=replicas,
            client_host=host,
            client_port=ports[n],
            client_region=client_region if regions else None,
        ).validate()


def _free_ports(host: str, count: int) -> List[int]:
    """Reserve *count* distinct free TCP ports by binding then releasing."""
    sockets: List[socket.socket] = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()
