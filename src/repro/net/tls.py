"""A simplified TLS: ECDHE handshake, certificate authentication,
AEAD-protected records.

One round trip establishes a session (TLS 1.3 style): the client sends
its ephemeral ECDH share, the server answers with its share, its
certificate chain, and a signature over the handshake transcript made
with the certified key.  The client validates the chain against its
trust anchors and the hostname, then both sides derive directional
record keys with HKDF.

What Revelio needs from TLS — and what this implementation provides —
is the *binding surface*: a connection exposes the server certificate's
public key (``TlsConnection.peer_public_key``), which the web extension
compares against the key hash in the attestation report (F3).  A
man-in-the-middle can terminate TLS with a different certificate, but
cannot present the attested VM's public key without its private key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..crypto import encoding
from ..crypto.drbg import HmacDrbg
from ..crypto.ec import P256
from ..crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey
from ..crypto.kdf import hkdf
from ..crypto.keys import PrivateKey, PublicKey
from ..crypto.modes import AeadCipher, AeadError
from ..crypto.x509 import Certificate, CertificateError, validate_chain
from .simnet import Host, RequestContext


class TlsError(ConnectionError):
    """Base class for TLS failures."""


class TlsHandshakeError(TlsError):
    """Certificate/signature validation failed during the handshake."""


class TlsRecordError(TlsError):
    """Record decryption or session lookup failed."""


def _transcript_hash(client_random: bytes, server_random: bytes,
                     server_share: bytes, server_name: str) -> bytes:
    return hashlib.sha256(
        b"tls-transcript" + client_random + server_random + server_share
        + server_name.encode("utf-8")
    ).digest()


def _derive_keys(shared_secret: bytes, client_random: bytes,
                 server_random: bytes) -> "tuple[AeadCipher, AeadCipher]":
    salt = client_random + server_random
    c2s = AeadCipher(hkdf(shared_secret, salt=salt, info=b"tls c2s", length=32))
    s2c = AeadCipher(hkdf(shared_secret, salt=salt, info=b"tls s2c", length=32))
    return c2s, s2c


def _nonce(direction: bytes, sequence: int) -> bytes:
    return direction + sequence.to_bytes(8, "big")


def _message(raw: bytes, error: type, kind: Optional[str] = None) -> dict:
    """Decode a peer's TLS message (of type ``kind``, if given); anything
    else is refused as ``error``."""
    try:
        message = encoding.decode(raw)
    except ValueError as exc:
        raise error("malformed TLS message") from exc
    if not isinstance(message, dict) or (kind and message.get("type") != kind):
        raise error(f"expected a TLS {kind or 'message'}")
    return message


def _field(message: dict, name: str, kind: type, error: type):
    """``message[name]`` if it is a ``kind``; the peer sent it, so
    anything else is refused as ``error``."""
    value = message.get(name)
    if not isinstance(value, kind):
        raise error(f"TLS field {name!r} missing or not {kind.__name__}")
    return value


def _ecdh_share(share_bytes: bytes) -> EcdsaPublicKey:
    """The peer's ECDH share, refused unless it is a finite P-256 point."""
    try:
        share = EcdsaPublicKey.decode(share_bytes)
    except ValueError as exc:
        raise TlsHandshakeError(f"undecodable ECDH share: {exc}") from exc
    if share.curve.name != P256.name or share.point.is_infinity:
        raise TlsHandshakeError("ECDH share is not a finite P-256 point")
    return share


@dataclass
class _ServerSession:
    c2s: AeadCipher
    s2c: AeadCipher
    recv_seq: int = 0
    send_seq: int = 0


class TlsServer:
    """Server-side TLS endpoint wrapping an application handler.

    Instantiate with the server identity and an application callback
    ``app(plaintext, ctx) -> plaintext``; bind :meth:`handle` to a port.
    """

    def __init__(
        self,
        certificate_chain: Sequence[Certificate],
        private_key: PrivateKey,
        app: Callable[[bytes, RequestContext], bytes],
        rng: HmacDrbg,
    ):
        if not certificate_chain:
            raise TlsError("server needs at least a leaf certificate")
        self.certificate_chain = list(certificate_chain)
        self._private_key = private_key
        self._app = app
        self._rng = rng
        self._sessions: Dict[bytes, _ServerSession] = {}
        self._session_counter = 0

    def handle(self, payload: bytes, context: RequestContext) -> bytes:
        """The wire entry point (bind as the port handler)."""
        message = _message(payload, TlsError)
        message_type = message.get("type")
        if message_type == "client_hello":
            return self._accept(message)
        if message_type == "record":
            return self._process_record(message, context)
        raise TlsError(f"unexpected TLS message type {message_type!r}")

    def _accept(self, hello: dict) -> bytes:
        client_random = _field(hello, "random", bytes, TlsHandshakeError)
        share_bytes = _field(hello, "ecdh_pub", bytes, TlsHandshakeError)
        server_name = _field(hello, "sni", str, TlsHandshakeError)

        client_share = _ecdh_share(share_bytes)

        ephemeral = EcdsaPrivateKey.generate(P256, self._rng)
        server_random = self._rng.generate(32)
        shared = ephemeral.ecdh(client_share)
        server_share = ephemeral.public_key().encode()
        transcript = _transcript_hash(
            client_random, server_random, server_share, server_name
        )
        signature = self._private_key.sign(transcript)

        self._session_counter += 1
        session_id = hashlib.sha256(
            b"session" + server_random + self._session_counter.to_bytes(8, "big")
        ).digest()[:16]
        c2s, s2c = _derive_keys(shared, client_random, server_random)
        self._sessions[session_id] = _ServerSession(c2s=c2s, s2c=s2c)
        return encoding.encode(
            {
                "type": "server_hello",
                "random": server_random,
                "ecdh_pub": server_share,
                "chain": [cert.encode() for cert in self.certificate_chain],
                "sig": signature,
                "session_id": session_id,
            }
        )

    def _process_record(self, record: dict, context: RequestContext) -> bytes:
        session_id = _field(record, "session_id", bytes, TlsRecordError)
        session = self._sessions.get(session_id)
        if session is None:
            raise TlsRecordError("unknown TLS session")
        try:
            plaintext = session.c2s.open(
                _nonce(b"c2s\x00", session.recv_seq),
                _field(record, "data", bytes, TlsRecordError),
                aad=session_id,
            )
        except AeadError as exc:
            raise TlsRecordError("record authentication failed") from exc
        session.recv_seq += 1
        response = self._app(plaintext, context)
        sealed = session.s2c.seal(
            _nonce(b"s2c\x00", session.send_seq), response, aad=session_id
        )
        session.send_seq += 1
        return encoding.encode(
            {"type": "record", "session_id": session_id, "data": sealed}
        )

    def reset_sessions(self) -> None:
        """Drop all sessions (server restart / certificate rotation)."""
        self._sessions.clear()


class TlsConnection:
    """Client side of one established session."""

    def __init__(
        self,
        host: Host,
        dst_ip: str,
        port: int,
        session_id: bytes,
        c2s: AeadCipher,
        s2c: AeadCipher,
        peer_chain: List[Certificate],
    ):
        self._host = host
        self.dst_ip = dst_ip
        self.port = port
        self.session_id = session_id
        self._c2s = c2s
        self._s2c = s2c
        self.peer_chain = peer_chain
        self._send_seq = 0
        self._recv_seq = 0
        self.closed = False

    @property
    def peer_certificate(self) -> Certificate:
        """The leaf certificate the peer presented."""
        return self.peer_chain[0]

    @property
    def peer_public_key(self) -> PublicKey:
        """The certified server key — what the extension compares with
        the attestation report's REPORT_DATA binding."""
        return self.peer_certificate.public_key

    def request(self, plaintext: bytes) -> bytes:
        """Send one protected request and return the protected response."""
        if self.closed:
            raise TlsError("connection is closed")
        sealed = self._c2s.seal(
            _nonce(b"c2s\x00", self._send_seq), plaintext, aad=self.session_id
        )
        self._send_seq += 1
        raw = self._host.request(
            self.dst_ip,
            self.port,
            encoding.encode(
                {"type": "record", "session_id": self.session_id, "data": sealed}
            ),
        )
        message = _message(raw, TlsRecordError, "record")
        try:
            plaintext_response = self._s2c.open(
                _nonce(b"s2c\x00", self._recv_seq),
                _field(message, "data", bytes, TlsRecordError),
                aad=self.session_id,
            )
        except AeadError as exc:
            raise TlsRecordError("response authentication failed") from exc
        self._recv_seq += 1
        return plaintext_response

    def close(self) -> None:
        """Close the connection."""
        self.closed = True


def tls_connect(
    host: Host,
    dst_ip: str,
    port: int,
    server_name: str,
    trust_anchors: Sequence[Certificate],
    rng: HmacDrbg,
    now: int,
    verify: bool = True,
    hello_metadata: Optional[Dict[str, object]] = None,
) -> TlsConnection:
    """Establish a TLS session to ``dst_ip:port``.

    With ``verify=True`` (default) the server chain must validate
    against *trust_anchors* and cover *server_name*; handshake failures
    raise :class:`TlsHandshakeError`.

    *hello_metadata* adds cleartext fields to the client hello — the
    ALPN-style extension surface.  Servers ignore fields they don't
    know; an attestation-aware gateway reads e.g. a ``tier`` tag to
    route the session before TLS terminates at a backend.
    """
    ephemeral = EcdsaPrivateKey.generate(P256, rng)
    client_random = rng.generate(32)
    hello_fields = {
        "type": "client_hello",
        "random": client_random,
        "ecdh_pub": ephemeral.public_key().encode(),
        "sni": server_name,
    }
    if hello_metadata:
        for field_name, value in hello_metadata.items():
            hello_fields.setdefault(field_name, value)
    hello = encoding.encode(hello_fields)
    raw = host.request(dst_ip, port, hello)
    message = _message(raw, TlsHandshakeError, "server_hello")
    server_random, share_bytes, signature, session_id = (
        _field(message, name, bytes, TlsHandshakeError)
        for name in ("random", "ecdh_pub", "sig", "session_id")
    )
    try:
        chain = [Certificate.decode(item)
                 for item in _field(message, "chain", list, TlsHandshakeError)]
    except (TypeError, ValueError) as exc:
        raise TlsHandshakeError(f"undecodable certificate: {exc}") from exc
    if not chain:
        raise TlsHandshakeError("empty certificate chain")
    server_share = _ecdh_share(share_bytes)
    if verify:
        try:
            validate_chain(chain, trust_anchors, now=now, hostname=server_name)
        except CertificateError as exc:
            raise TlsHandshakeError(f"certificate validation failed: {exc}") from exc
    transcript = _transcript_hash(
        client_random, server_random, share_bytes, server_name
    )
    if not chain[0].public_key.verify(transcript, signature):
        raise TlsHandshakeError(
            "handshake signature does not verify under the server certificate"
        )
    shared = ephemeral.ecdh(server_share)
    c2s, s2c = _derive_keys(shared, client_random, server_random)
    return TlsConnection(
        host=host,
        dst_ip=dst_ip,
        port=port,
        session_id=session_id,
        c2s=c2s,
        s2c=s2c,
        peer_chain=chain,
    )
