"""The simulated internet: hosts, links, firewalls, and MITM hooks.

A synchronous message-passing network with a shared virtual clock.
Every request/response exchange advances the clock by the link RTT (per
the :class:`~repro.net.latency.LatencyModel`) plus whatever processing
time the serving handler declares — so end-to-end latencies compose the
way the paper's Table 3 measurements do.

Adversarial capabilities from the threat model (section 3.2) are first
class: interceptors can observe, modify, drop, or redirect any traffic
(the cloud provider owns the network), and hosts can be registered at
any IP (impersonation).  Confidentiality and integrity, where needed,
must come from TLS on top — exactly as on the real internet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from .dns import DnsRegistry
from .firewall import ConnectionRefused, Firewall
from .latency import ClockScope, LatencyModel, SimClock


class NetworkError(ConnectionError):
    """Unreachable hosts / closed ports."""


@dataclass
class RequestContext:
    """Metadata a handler sees about an incoming message."""

    network: "Network"
    source_ip: str
    destination_ip: str
    port: int

    def add_processing_time(self, seconds: float) -> None:
        """Account server-side work on the shared clock."""
        self.network.clock.advance(seconds)


Handler = Callable[[bytes, RequestContext], bytes]

#: An interceptor sees (src_ip, dst_ip, port, payload) and returns a
#: possibly modified tuple, or None to drop the packet.
Interceptor = Callable[
    [str, str, int, bytes], Optional[Tuple[str, str, int, bytes]]
]


class Host:
    """A machine on the network."""

    def __init__(self, network: "Network", name: str, ip_address: str,
                 firewall: Optional[Firewall] = None,
                 region: Optional[str] = None):
        self.network = network
        self.name = name
        self.ip_address = ip_address
        self.firewall = firewall if firewall is not None else Firewall.open_firewall()
        #: Topology placement; cross-region exchanges are priced by the
        #: latency model's inter-region RTT map instead of ``base_rtt``.
        self.region = region
        self._listeners: Dict[int, Handler] = {}

    def listen(self, port: int, handler: Handler) -> None:
        """Bind *handler* to a port."""
        if not (0 < port < 65536):
            raise NetworkError(f"invalid port {port}")
        self._listeners[port] = handler

    def close_port(self, port: int) -> None:
        """Stop listening on a port."""
        self._listeners.pop(port, None)

    def handler_for(self, port: int) -> Handler:
        """The handler bound to a port (raises if none)."""
        try:
            return self._listeners[port]
        except KeyError:
            raise NetworkError(
                f"connection to {self.name}:{port} refused (nothing listening)"
            ) from None

    def request(self, dst_ip: str, port: int, payload: bytes) -> bytes:
        """Send a request from this host and wait for the response."""
        return self.network.exchange(self, dst_ip, port, payload)


class _SharedScope:
    """A synchronous-mode :meth:`Network.measure` scope: the block
    advances the shared clock, and ``elapsed`` is how far it moved."""

    __slots__ = ("elapsed", "_clock", "_before")

    def __init__(self, clock: SimClock) -> None:
        self.elapsed = 0.0
        self._clock = clock

    def __enter__(self) -> "_SharedScope":
        self._before = self._clock.now
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.elapsed = self._clock.now - self._before


class Network:
    """The shared medium + clock + DNS of one simulated internet.

    By default exchanges run *synchronously*: each one advances the
    shared clock in place (a degenerate single-process simulation).  An
    event-driven simulation opts in with :meth:`enable_event_mode` and
    measures exchanges inside :meth:`measure` — the elapsed virtual time
    is charged to an isolated clock scope instead of the shared
    timeline, and the caller (a :class:`repro.sim.kernel.EventKernel`
    process) replays it as a kernel sleep.  Concurrent in-flight
    exchanges therefore each advance only their own timeline, while all
    existing synchronous callers keep working unchanged.
    """

    def __init__(self, latency: Optional[LatencyModel] = None):
        self.clock = SimClock()
        self.latency = latency if latency is not None else LatencyModel()
        self.dns = DnsRegistry()
        self._hosts_by_ip: Dict[str, Host] = {}
        self._interceptors: List[Interceptor] = []
        self.event_mode = False
        self.kernel = None

    def enable_event_mode(self, kernel=None) -> None:
        """Switch to event-driven timing (see class docstring)."""
        self.event_mode = True
        if kernel is not None:
            self.kernel = kernel

    def measure(self) -> Union[ClockScope, _SharedScope]:
        """A scope (``with network.measure() as scope:``) measuring the
        virtual time spent in the block without (in event mode)
        advancing the shared timeline: there it is the clock's own
        :meth:`~repro.net.latency.SimClock.isolated` scope.

        In synchronous mode the block's advances land on the shared
        clock as always and the scope merely reports their sum, so
        instrumentation code works identically in both modes.
        """
        if self.event_mode:
            return self.clock.isolated()
        return _SharedScope(self.clock)

    def timed_exchange(self, source: "Host", dst_ip: str, port: int,
                       payload: bytes) -> Tuple[bytes, float]:
        """:meth:`exchange` plus the virtual seconds it took."""
        with self.measure() as scope:
            response = self.exchange(source, dst_ip, port, payload)
        return response, scope.elapsed

    def add_host(self, name: str, ip_address: str,
                 firewall: Optional[Firewall] = None,
                 region: Optional[str] = None) -> Host:
        """Attach a machine to the network."""
        if ip_address in self._hosts_by_ip:
            raise NetworkError(f"IP {ip_address} already in use")
        host = Host(self, name, ip_address, firewall, region=region)
        self._hosts_by_ip[ip_address] = host
        return host

    def remove_host(self, ip_address: str) -> None:
        """Detach a machine."""
        self._hosts_by_ip.pop(ip_address, None)

    def attach_host(self, host: "Host") -> "Host":
        """Re-attach a previously removed machine (fault revert: the
        host comes back with its listeners and state intact)."""
        if host.ip_address in self._hosts_by_ip:
            raise NetworkError(f"IP {host.ip_address} already in use")
        self._hosts_by_ip[host.ip_address] = host
        return host

    def host_at(self, ip_address: str) -> Host:
        """The host at an IP (raises if unreachable)."""
        try:
            return self._hosts_by_ip[ip_address]
        except KeyError:
            raise NetworkError(f"no route to host {ip_address}") from None

    def add_interceptor(self, interceptor: Interceptor) -> None:
        """Install a man-in-the-middle hook (adversary capability)."""
        self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        """Remove a previously installed hook."""
        self._interceptors.remove(interceptor)

    def exchange(self, source: Host, dst_ip: str, port: int, payload: bytes) -> bytes:
        """One request/response round trip, through any interceptors."""
        src_ip = source.ip_address
        for interceptor in self._interceptors:
            result = interceptor(src_ip, dst_ip, port, payload)
            if result is None:
                raise NetworkError("packet dropped in transit")
            src_ip, dst_ip, port, payload = result

        destination = self.host_at(dst_ip)
        destination.firewall.check_inbound(port, destination.name)
        handler = destination.handler_for(port)
        self.clock.advance(self.rtt_between(source, destination))
        context = RequestContext(
            network=self,
            source_ip=source.ip_address,
            destination_ip=dst_ip,
            port=port,
        )
        return handler(payload, context)

    def rtt_between(self, source: Host, destination: Host) -> float:
        """Topology-priced round trip between two attached hosts
        (host-pair override > inter-region map > base RTT)."""
        return self.latency.rtt_between(
            source.name, destination.name, source.region, destination.region
        )

    def resolve(self, domain: str) -> str:
        """Resolve a domain to one address."""
        return self.dns.resolve(domain)


__all__ = [
    "ConnectionRefused",
    "Handler",
    "Host",
    "Interceptor",
    "Network",
    "NetworkError",
    "RequestContext",
]
