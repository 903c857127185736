"""Certificate, CSR, and chain-validation tests."""

from dataclasses import replace

import pytest

from repro.crypto import encoding
from repro.crypto.drbg import HmacDrbg
from repro.crypto.keys import PrivateKey
from repro.crypto.x509 import (
    Certificate,
    CertificateError,
    CertificateIssuer,
    CertificateSigningRequest,
    Name,
    validate_chain,
)

NOW = 1_000_000
LATER = 2_000_000


@pytest.fixture(scope="module")
def rng():
    return HmacDrbg(b"x509-tests")


@pytest.fixture(scope="module")
def root(rng):
    key = PrivateKey.generate_ecdsa(rng, "P-384")
    return CertificateIssuer.self_signed_root(
        Name("Test Root CA", organization="TestOrg"), key, NOW - 100, LATER
    )


@pytest.fixture(scope="module")
def intermediate(rng, root):
    key = PrivateKey.generate_ecdsa(rng)
    cert = root.issue(
        Name("Test Intermediate"), key.public_key(), NOW - 50, LATER, is_ca=True,
        path_length=0,
    )
    return CertificateIssuer(cert, key)


@pytest.fixture(scope="module")
def leaf(rng, intermediate):
    key = PrivateKey.generate_ecdsa(rng)
    cert = intermediate.issue(
        Name("example.com"),
        key.public_key(),
        NOW - 10,
        LATER,
        san=("example.com", "www.example.com", "*.api.example.com"),
    )
    return cert, key


class TestChainValidation:
    def test_valid_chain(self, root, intermediate, leaf):
        cert, _ = leaf
        validate_chain(
            [cert, intermediate.certificate],
            [root.certificate],
            now=NOW,
            hostname="example.com",
        )

    def test_chain_including_root(self, root, intermediate, leaf):
        cert, _ = leaf
        validate_chain(
            [cert, intermediate.certificate, root.certificate],
            [root.certificate],
            now=NOW,
        )

    def test_untrusted_root_rejected(self, rng, intermediate, leaf):
        cert, _ = leaf
        other_key = PrivateKey.generate_ecdsa(rng)
        other_root = CertificateIssuer.self_signed_root(
            Name("Other Root"), other_key, NOW - 100, LATER
        )
        with pytest.raises(CertificateError):
            validate_chain(
                [cert, intermediate.certificate], [other_root.certificate], now=NOW
            )

    def test_expired_leaf_rejected(self, rng, root, intermediate):
        key = PrivateKey.generate_ecdsa(rng)
        cert = intermediate.issue(
            Name("expired.com"), key.public_key(), NOW - 100, NOW - 1
        )
        with pytest.raises(CertificateError, match="expired"):
            validate_chain(
                [cert, intermediate.certificate], [root.certificate], now=NOW
            )

    def test_not_yet_valid_rejected(self, rng, root, intermediate):
        key = PrivateKey.generate_ecdsa(rng)
        cert = intermediate.issue(
            Name("future.com"), key.public_key(), NOW + 100, LATER
        )
        with pytest.raises(CertificateError):
            validate_chain(
                [cert, intermediate.certificate], [root.certificate], now=NOW
            )

    def test_hostname_mismatch_rejected(self, root, intermediate, leaf):
        cert, _ = leaf
        with pytest.raises(CertificateError, match="hostname"):
            validate_chain(
                [cert, intermediate.certificate],
                [root.certificate],
                now=NOW,
                hostname="evil.com",
            )

    def test_non_ca_intermediate_rejected(self, rng, root, intermediate, leaf):
        cert, _ = leaf
        key = PrivateKey.generate_ecdsa(rng)
        non_ca = intermediate.issue(Name("notaca.com"), key.public_key(), NOW, LATER)
        with pytest.raises(CertificateError):
            validate_chain([cert, non_ca], [root.certificate], now=NOW)

    def test_tampered_signature_rejected(self, root, intermediate, leaf):
        cert, _ = leaf
        from dataclasses import replace

        bad = replace(cert, signature=bytes(64))
        with pytest.raises(CertificateError):
            validate_chain(
                [bad, intermediate.certificate], [root.certificate], now=NOW
            )

    def test_tampered_subject_rejected(self, root, intermediate, leaf):
        cert, _ = leaf
        from dataclasses import replace

        bad = replace(cert, subject=Name("evil.com"), san=("evil.com",))
        with pytest.raises(CertificateError):
            validate_chain(
                [bad, intermediate.certificate],
                [root.certificate],
                now=NOW,
                hostname="evil.com",
            )

    def test_empty_chain_rejected(self, root):
        with pytest.raises(CertificateError):
            validate_chain([], [root.certificate], now=NOW)

    def test_issuer_mismatch_rejected(self, rng, root, leaf):
        cert, _ = leaf
        key = PrivateKey.generate_ecdsa(rng)
        unrelated_ca = CertificateIssuer.self_signed_root(
            Name("Unrelated CA"), key, NOW - 100, LATER
        )
        with pytest.raises(CertificateError, match="issuer mismatch|trust anchor"):
            validate_chain(
                [cert, unrelated_ca.certificate], [root.certificate], now=NOW
            )


class TestHostnameMatching:
    def test_exact_san(self, leaf):
        cert, _ = leaf
        assert cert.matches_hostname("www.example.com")

    def test_case_insensitive(self, leaf):
        cert, _ = leaf
        assert cert.matches_hostname("WWW.EXAMPLE.COM")

    def test_wildcard_one_label(self, leaf):
        cert, _ = leaf
        assert cert.matches_hostname("v1.api.example.com")
        assert not cert.matches_hostname("a.b.api.example.com")

    def test_wildcard_does_not_match_bare_domain(self, leaf):
        cert, _ = leaf
        assert not cert.matches_hostname("api.example.com")


class TestSerialization:
    def test_round_trip(self, leaf):
        cert, _ = leaf
        assert Certificate.decode(cert.encode()) == cert

    def test_fingerprint_covers_signature(self, leaf):
        cert, _ = leaf
        from dataclasses import replace

        assert cert.fingerprint() != replace(cert, signature=b"x").fingerprint()

    def test_malformed_rejected(self):
        with pytest.raises((CertificateError, ValueError)):
            Certificate.decode(b"garbage")

    def test_extension_lookup(self, rng, intermediate):
        key = PrivateKey.generate_ecdsa(rng)
        cert = intermediate.issue(
            Name("ext.com"), key.public_key(), NOW, LATER,
            extensions=(("chip_id", b"\xab" * 64),),
        )
        assert cert.extension("chip_id") == b"\xab" * 64
        assert cert.extension("missing") is None


class TestTbsEncoding:
    """The body is encoded once per certificate, and the encoding never
    travels with a copy whose fields differ."""

    def test_replaced_copy_re_encodes_and_fails_verification(
        self, root, intermediate, leaf
    ):
        cert, _ = leaf
        issuer_key = intermediate.certificate.public_key
        assert cert.verify_signature(issuer_key)  # encodes and keeps the body
        forged = replace(cert, subject=Name("evil.com"))
        assert forged.tbs_bytes() != cert.tbs_bytes()
        assert not forged.verify_signature(issuer_key)
        with pytest.raises(CertificateError, match="bad signature"):
            validate_chain(
                [forged, intermediate.certificate], [root.certificate], now=NOW
            )

    def test_body_is_encoded_once_per_certificate(self, monkeypatch, rng, intermediate):
        key = PrivateKey.generate_ecdsa(rng)
        cert = intermediate.issue(Name("once.example"), key.public_key(), NOW, LATER)
        bodies = []
        real_encode = encoding.encode

        def counting_encode(value):
            if isinstance(value, dict) and "subject" in value:
                bodies.append(value)
            return real_encode(value)

        monkeypatch.setattr(encoding, "encode", counting_encode)
        for _ in range(3):
            cert.fingerprint()
            assert cert.verify_signature(intermediate.certificate.public_key)
            cert.tbs_bytes()
        assert len(bodies) == 1


class TestCsr:
    def test_create_and_verify(self, rng):
        key = PrivateKey.generate_ecdsa(rng)
        csr = CertificateSigningRequest.create(
            Name("service.example"), key, san=("service.example",)
        )
        assert csr.verify()

    def test_round_trip(self, rng):
        key = PrivateKey.generate_ecdsa(rng)
        csr = CertificateSigningRequest.create(Name("s.example"), key)
        decoded = CertificateSigningRequest.decode(csr.encode())
        assert decoded == csr
        assert decoded.verify()

    def test_tampered_subject_fails_pop(self, rng):
        from dataclasses import replace

        key = PrivateKey.generate_ecdsa(rng)
        csr = CertificateSigningRequest.create(Name("honest.example"), key)
        bad = replace(csr, subject=Name("evil.example"))
        assert not bad.verify()

    def test_swapped_key_fails_pop(self, rng):
        from dataclasses import replace

        key = PrivateKey.generate_ecdsa(rng)
        other = PrivateKey.generate_ecdsa(rng)
        csr = CertificateSigningRequest.create(Name("x.example"), key)
        bad = replace(csr, public_key=other.public_key())
        assert not bad.verify()

    def test_unsigned_fails(self, rng):
        key = PrivateKey.generate_ecdsa(rng)
        csr = CertificateSigningRequest(
            subject=Name("x"), public_key=key.public_key()
        )
        assert not csr.verify()

    def test_fingerprint_distinct(self, rng):
        key = PrivateKey.generate_ecdsa(rng)
        csr1 = CertificateSigningRequest.create(Name("a.example"), key)
        csr2 = CertificateSigningRequest.create(Name("b.example"), key)
        assert csr1.fingerprint() != csr2.fingerprint()


class TestRsaIssuer:
    def test_rsa_root_signs_ecdsa_leaf(self, rng):
        rsa_key = PrivateKey.generate_rsa(rng, bits=1024)
        rsa_root = CertificateIssuer.self_signed_root(
            Name("RSA Root"), rsa_key, NOW - 100, LATER
        )
        leaf_key = PrivateKey.generate_ecdsa(rng)
        cert = rsa_root.issue(
            Name("mixed.example"), leaf_key.public_key(), NOW, LATER,
            san=("mixed.example",),
        )
        validate_chain([cert], [rsa_root.certificate], now=NOW,
                       hostname="mixed.example")

    def test_non_ca_cannot_issue(self, rng, intermediate):
        key = PrivateKey.generate_ecdsa(rng)
        cert = intermediate.issue(Name("leaf.com"), key.public_key(), NOW, LATER)
        fake_issuer = CertificateIssuer(cert, key)
        with pytest.raises(CertificateError):
            fake_issuer.issue(Name("child.com"), key.public_key(), NOW, LATER)
