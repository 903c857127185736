"""TLS handshake/record and HTTP stack tests."""

import pytest

from repro.crypto import encoding
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ec import P256, P384
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.crypto.keys import PrivateKey
from repro.crypto.x509 import Name
from repro.net.http import (
    ConnectionInfo,
    HttpClient,
    HttpError,
    HttpRequest,
    HttpResponse,
    HttpServer,
    parse_url,
)
from repro.net.latency import ZERO_LATENCY
from repro.net.simnet import Network
from repro.net.tls import (
    TlsHandshakeError,
    TlsRecordError,
    TlsServer,
    _transcript_hash,
    tls_connect,
)
from repro.pki.ca import WebPki

NOW = 0


@pytest.fixture
def world():
    """A network with a PKI, one TLS server, and one client host."""
    rng = HmacDrbg(b"tls-tests")
    net = Network(ZERO_LATENCY)
    pki = WebPki.create(rng.fork(b"pki"))
    server_host = net.add_host("server", "10.0.0.1")
    client_host = net.add_host("client", "10.0.0.2")
    net.dns.register("service.example", "10.0.0.1")

    server_key = PrivateKey.generate_ecdsa(rng.fork(b"server-key"))
    leaf = pki.intermediate.issue(
        Name("service.example"),
        server_key.public_key(),
        0,
        10**9,
        san=("service.example",),
    )
    http = HttpServer("service.example")
    http.add_route("GET", "/", lambda req, ctx: HttpResponse.ok(b"<html>hello</html>"))
    http.add_route(
        "POST", "/submit",
        lambda req, ctx: HttpResponse.ok(b"got:" + req.body, "text/plain"),
    )
    http.serve_tls(server_host, pki.chain_for(leaf), server_key, rng.fork(b"srv"))
    return {
        "net": net,
        "pki": pki,
        "rng": rng,
        "client_host": client_host,
        "server_host": server_host,
        "server_key": server_key,
        "leaf": leaf,
        "http": http,
    }


class TestTlsHandshake:
    def test_connect_and_exchange(self, world):
        connection = tls_connect(
            world["client_host"], "10.0.0.1", 443, "service.example",
            [world["pki"].trust_anchor], world["rng"].fork(b"c1"), NOW,
        )
        request = HttpRequest("GET", "/").encode()
        response = HttpResponse.decode(connection.request(request))
        assert response.status == 200
        assert response.body == b"<html>hello</html>"

    def test_peer_public_key_exposed(self, world):
        connection = tls_connect(
            world["client_host"], "10.0.0.1", 443, "service.example",
            [world["pki"].trust_anchor], world["rng"].fork(b"c2"), NOW,
        )
        assert connection.peer_public_key == world["server_key"].public_key()

    def test_untrusted_ca_rejected(self, world):
        other_pki = WebPki.create(HmacDrbg(b"other-pki"))
        with pytest.raises(TlsHandshakeError):
            tls_connect(
                world["client_host"], "10.0.0.1", 443, "service.example",
                [other_pki.trust_anchor], world["rng"].fork(b"c3"), NOW,
            )

    def test_hostname_mismatch_rejected(self, world):
        with pytest.raises(TlsHandshakeError):
            tls_connect(
                world["client_host"], "10.0.0.1", 443, "evil.example",
                [world["pki"].trust_anchor], world["rng"].fork(b"c4"), NOW,
            )

    def test_impersonator_without_private_key_fails(self, world):
        # An attacker replays the honest certificate chain but signs the
        # transcript with a different key: the signature check catches it.
        rng = world["rng"]
        evil_key = PrivateKey.generate_ecdsa(rng.fork(b"evil"))
        evil_host = world["net"].add_host("evil", "10.6.6.6")
        evil_tls = TlsServer(
            world["pki"].chain_for(world["leaf"]),  # stolen chain
            evil_key,  # ...but not the private key
            lambda p, c: p,
            rng.fork(b"evil-srv"),
        )
        evil_host.listen(443, evil_tls.handle)
        with pytest.raises(TlsHandshakeError, match="signature"):
            tls_connect(
                world["client_host"], "10.6.6.6", 443, "service.example",
                [world["pki"].trust_anchor], rng.fork(b"c5"), NOW,
            )

    def test_sessions_survive_multiple_requests(self, world):
        connection = tls_connect(
            world["client_host"], "10.0.0.1", 443, "service.example",
            [world["pki"].trust_anchor], world["rng"].fork(b"c6"), NOW,
        )
        for index in range(5):
            body = f"msg-{index}".encode()
            response = HttpResponse.decode(
                connection.request(HttpRequest("POST", "/submit", body=body).encode())
            )
            assert response.body == b"got:" + body

    def test_server_restart_invalidates_sessions(self, world):
        connection = tls_connect(
            world["client_host"], "10.0.0.1", 443, "service.example",
            [world["pki"].trust_anchor], world["rng"].fork(b"c7"), NOW,
        )
        world["http"].tls.reset_sessions()
        from repro.net.tls import TlsRecordError

        with pytest.raises(TlsRecordError):
            connection.request(HttpRequest("GET", "/").encode())

    def test_closed_connection_rejects_requests(self, world):
        connection = tls_connect(
            world["client_host"], "10.0.0.1", 443, "service.example",
            [world["pki"].trust_anchor], world["rng"].fork(b"c8"), NOW,
        )
        connection.close()
        from repro.net.tls import TlsError

        with pytest.raises(TlsError):
            connection.request(b"x")


class TestUntrustedClientFields:
    """Every field a client sends is refused with a typed TLS error when
    it is missing, of the wrong type or undecodable: never ``KeyError``,
    ``TypeError`` or a point-decode ``ValueError``."""

    def _hello(self, world, **overrides):
        share = EcdsaPrivateKey.generate(P256, world["rng"].fork(b"hello-share"))
        hello = {
            "type": "client_hello",
            "random": b"r" * 32,
            "ecdh_pub": share.public_key().encode(),
            "sni": "service.example",
        }
        hello.update(overrides)
        return {name: value for name, value in hello.items() if value is not None}

    def _send(self, world, message):
        return world["http"].tls.handle(encoding.encode(message), None)

    def test_complete_hello_is_answered(self, world):
        answer = encoding.decode(self._send(world, self._hello(world)))
        assert answer["type"] == "server_hello"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"random": None},
            {"ecdh_pub": None},
            {"sni": None},
            {"random": "not-bytes"},
            {"ecdh_pub": 7},
            {"sni": b"service.example"},
            {"ecdh_pub": b""},
            {"ecdh_pub": b"\x05P-256\x04" + (1).to_bytes(32, "big") * 2},
            {"ecdh_pub": b"\x05P-256\x00"},
            {"ecdh_pub": b"\x05P-999" + bytes(65)},
            {"ecdh_pub": b"\xff\xfe"},
        ],
        ids=[
            "no-random", "no-ecdh_pub", "no-sni", "str-random", "int-ecdh_pub",
            "bytes-sni", "empty-share", "off-curve-share", "infinity-share",
            "unknown-curve-share", "garbage-share",
        ],
    )
    def test_bad_hello_field_is_a_handshake_error(self, world, overrides):
        with pytest.raises(TlsHandshakeError):
            self._send(world, self._hello(world, **overrides))

    def test_share_on_another_curve_is_a_handshake_error(self, world):
        share = EcdsaPrivateKey.generate(P384, world["rng"].fork(b"p384-share"))
        with pytest.raises(TlsHandshakeError):
            self._send(world, self._hello(world, ecdh_pub=share.public_key().encode()))

    @pytest.mark.parametrize(
        "record",
        [
            {"type": "record"},
            {"type": "record", "session_id": [1, 2]},
            {"type": "record", "session_id": "not-bytes"},
            {"type": "record", "session_id": b"unknown", "data": b""},
        ],
        ids=["no-session_id", "list-session_id", "str-session_id", "unknown-session"],
    )
    def test_bad_record_session_is_a_record_error(self, world, record):
        with pytest.raises(TlsRecordError):
            self._send(world, record)

    @pytest.mark.parametrize("data", [None, "text", 7, bytes(64)],
                             ids=["no-data", "str-data", "int-data", "forged-data"])
    def test_bad_record_data_is_a_record_error_and_keeps_the_session(self, world, data):
        connection = tls_connect(
            world["client_host"], "10.0.0.1", 443, "service.example",
            [world["pki"].trust_anchor], world["rng"].fork(b"c9"), NOW,
        )
        record = {"type": "record", "session_id": connection.session_id}
        if data is not None:
            record["data"] = data
        with pytest.raises(TlsRecordError):
            self._send(world, record)
        # A refused record does not advance the session's sequence
        # numbers, so its owner's next record still authenticates.
        response = HttpResponse.decode(connection.request(HttpRequest("GET", "/").encode()))
        assert response.status == 200


class TestUntrustedServerFields:
    """Every field a server sends is refused with a typed TLS error when
    it is missing, of the wrong type or undecodable: never ``KeyError``,
    ``TypeError`` or a decode ``ValueError``, which ``HttpClient`` (it
    catches ``ConnectionError``) would pass to the browser."""

    def _tamper(self, world, kind, overrides=None, resign=False, junk=False):
        """Put a proxy in front of the server that edits its ``kind``
        replies: *overrides* replace fields (``None`` drops one) or
        *junk* replaces the whole reply.  With *resign* the proxy signs
        the edited transcript with the server's key, as a malicious
        server would, so only the client's share checks can refuse it."""
        tls = world["http"].tls

        def handle(payload, context):
            reply = encoding.decode(tls.handle(payload, context))
            if reply["type"] != kind:
                return encoding.encode(reply)
            if junk:
                return b"\xff\xfe"
            reply.update(overrides)
            if resign:
                hello = encoding.decode(payload)
                reply["sig"] = world["server_key"].sign(_transcript_hash(
                    hello["random"], reply["random"], reply["ecdh_pub"], hello["sni"]
                ))
            return encoding.encode(
                {name: value for name, value in reply.items() if value is not None}
            )

        world["server_host"].listen(443, handle)

    def _connect(self, world):
        return tls_connect(
            world["client_host"], "10.0.0.1", 443, "service.example",
            [world["pki"].trust_anchor], world["rng"].fork(b"c10"), NOW,
        )

    def test_untouched_replies_are_accepted(self, world):
        self._tamper(world, "server_hello", {})
        connection = self._connect(world)
        response = HttpResponse.decode(connection.request(HttpRequest("GET", "/").encode()))
        assert response.status == 200

    @pytest.mark.parametrize(
        "overrides",
        [
            {"chain": None},
            {"sig": None},
            {"random": None},
            {"ecdh_pub": None},
            {"session_id": None},
            {"chain": b"not-a-list"},
            {"chain": []},
            {"chain": [7]},
            {"chain": [b"junk"]},
            {"sig": 7},
            {"random": "not-bytes"},
            {"ecdh_pub": 7},
            {"session_id": 5},
        ],
        ids=[
            "no-chain", "no-sig", "no-random", "no-ecdh_pub", "no-session_id",
            "bytes-chain", "empty-chain", "int-in-chain", "junk-chain", "int-sig",
            "str-random", "int-ecdh_pub", "int-session_id",
        ],
    )
    def test_bad_hello_field_is_a_handshake_error(self, world, overrides):
        self._tamper(world, "server_hello", overrides)
        with pytest.raises(TlsHandshakeError):
            self._connect(world)

    @pytest.mark.parametrize(
        "share",
        [
            b"",
            b"\xff\xfe",
            b"\x05P-256\x04" + (1).to_bytes(32, "big") * 2,
            b"\x05P-256\x00",
            b"\x05P-999" + bytes(65),
            None,
        ],
        ids=["empty", "garbage", "off-curve", "infinity", "unknown-curve", "p384"],
    )
    def test_bad_signed_share_is_a_handshake_error(self, world, share):
        if share is None:
            share = EcdsaPrivateKey.generate(P384, world["rng"].fork(b"p384")).public_key().encode()
        self._tamper(world, "server_hello", {"ecdh_pub": share}, resign=True)
        with pytest.raises(TlsHandshakeError):
            self._connect(world)

    def test_undecodable_hello_is_a_handshake_error(self, world):
        self._tamper(world, "server_hello", junk=True)
        with pytest.raises(TlsHandshakeError):
            self._connect(world)

    @pytest.mark.parametrize("data", [None, "text", 7], ids=["no-data", "str-data", "int-data"])
    def test_bad_record_data_is_a_record_error(self, world, data):
        self._tamper(world, "record", {"data": data})
        connection = self._connect(world)
        with pytest.raises(TlsRecordError):
            connection.request(HttpRequest("GET", "/").encode())

    def test_undecodable_record_is_a_record_error(self, world):
        self._tamper(world, "record", junk=True)
        connection = self._connect(world)
        with pytest.raises(TlsRecordError):
            connection.request(HttpRequest("GET", "/").encode())

    def test_http_client_raises_a_tls_error(self, world):
        self._tamper(world, "server_hello", {"chain": None})
        client = HttpClient(
            world["client_host"], [world["pki"].trust_anchor], world["rng"].fork(b"hc9"),
        )
        with pytest.raises(TlsHandshakeError):
            client.get("https://service.example/")


class TestHttpClient:
    def test_get(self, world):
        client = HttpClient(
            world["client_host"], [world["pki"].trust_anchor],
            world["rng"].fork(b"hc"),
        )
        response, info = client.get("https://service.example/")
        assert response.status == 200
        assert info.scheme == "https"
        assert info.destination_ip == "10.0.0.1"
        assert info.peer_public_key == world["server_key"].public_key()

    def test_post(self, world):
        client = HttpClient(
            world["client_host"], [world["pki"].trust_anchor],
            world["rng"].fork(b"hc2"),
        )
        response, _ = client.post("https://service.example/submit", b"payload")
        assert response.body == b"got:payload"

    def test_connection_reuse(self, world):
        client = HttpClient(
            world["client_host"], [world["pki"].trust_anchor],
            world["rng"].fork(b"hc3"),
        )
        _, first = client.get("https://service.example/")
        _, second = client.get("https://service.example/")
        assert first.session_id == second.session_id

    def test_reconnect_after_server_restart(self, world):
        client = HttpClient(
            world["client_host"], [world["pki"].trust_anchor],
            world["rng"].fork(b"hc4"),
        )
        _, first = client.get("https://service.example/")
        world["http"].tls.reset_sessions()
        response, second = client.get("https://service.example/")
        assert response.status == 200
        assert first.session_id != second.session_id

    def test_404(self, world):
        client = HttpClient(
            world["client_host"], [world["pki"].trust_anchor],
            world["rng"].fork(b"hc5"),
        )
        response, _ = client.get("https://service.example/missing")
        assert response.status == 404

    def test_plain_http(self, world):
        plain = HttpServer("plain")
        plain.add_route("GET", "/", lambda r, c: HttpResponse.ok(b"insecure"))
        plain.serve_plain(world["server_host"], 80)
        client = HttpClient(world["client_host"], [], world["rng"].fork(b"hc6"))
        response, info = client.get("http://service.example/")
        assert response.body == b"insecure"
        assert info.peer_certificate is None


class TestUrlParsing:
    @pytest.mark.parametrize(
        "url,scheme,host,port,path",
        [
            ("https://a.example/", "https", "a.example", 443, "/"),
            ("https://a.example", "https", "a.example", 443, "/"),
            ("http://a.example:8080/x/y", "http", "a.example", 8080, "/x/y"),
            ("https://a.example/.well-known/report", "https", "a.example", 443,
             "/.well-known/report"),
        ],
    )
    def test_valid(self, url, scheme, host, port, path):
        parsed = parse_url(url)
        assert (parsed.scheme, parsed.hostname, parsed.port, parsed.path) == (
            scheme, host, port, path,
        )

    @pytest.mark.parametrize("url", ["ftp://x/", "https://", "no-scheme", "https://h:bad/"])
    def test_invalid(self, url):
        with pytest.raises(HttpError):
            parse_url(url)


class TestMessageCodecs:
    def test_request_round_trip(self):
        request = HttpRequest("POST", "/x", {"h": "v"}, b"body")
        assert HttpRequest.decode(request.encode()) == request

    def test_response_round_trip(self):
        response = HttpResponse(201, {"h": "v"}, b"body")
        assert HttpResponse.decode(response.encode()) == response

    def test_malformed(self):
        with pytest.raises(HttpError):
            HttpRequest.decode(b"junk")
        with pytest.raises(HttpError):
            HttpResponse.decode(b"junk")

    def test_connection_info_no_cert(self):
        info = ConnectionInfo("http", "1.2.3.4")
        assert info.peer_public_key is None
