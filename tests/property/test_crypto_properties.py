"""Property-based tests (hypothesis) over the crypto substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import encoding
from repro.crypto.aes import AES
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import sha256
from repro.crypto.kdf import hkdf
from repro.crypto.merkle import MerkleTree
from repro.crypto.modes import AeadCipher, XtsCipher
from repro.crypto.shamir import reconstruct_secret, split_secret

# -- canonical encoding ------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**128), max_value=2**128),
    st.binary(max_size=64),
    st.text(max_size=32),
)

_encodables = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=20,
)


@given(_encodables)
def test_encoding_round_trip(value):
    assert encoding.decode(encoding.encode(value)) == value


@given(_encodables, _encodables)
def test_encoding_injective(left, right):
    if encoding.encode(left) == encoding.encode(right):
        assert left == right


# -- AES / XTS / AEAD --------------------------------------------------------


@given(st.binary(min_size=16, max_size=16), st.sampled_from([16, 24, 32]))
def test_aes_round_trip(block, key_size):
    cipher = AES(bytes(range(key_size)))
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=4),
    st.binary(min_size=8, max_size=8),
    st.sampled_from([512, 4096]),
)
def test_xts_round_trip(first_sector, num_sectors, seed, sector_size):
    rng = HmacDrbg(seed)
    xts = XtsCipher(rng.generate(64), sector_size=sector_size)
    data = rng.generate(sector_size * num_sectors)
    assert xts.decrypt(xts.encrypt(data, first_sector), first_sector) == data


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=256), st.binary(max_size=64), st.binary(min_size=12, max_size=12))
def test_aead_round_trip(plaintext, aad, nonce):
    aead = AeadCipher(b"\x07" * 32)
    assert aead.open(nonce, aead.seal(nonce, plaintext, aad), aad) == plaintext


# -- HKDF --------------------------------------------------------------------


@given(st.binary(max_size=64), st.binary(max_size=32), st.integers(min_value=0, max_value=128))
def test_hkdf_length_and_prefix(ikm, info, length):
    out = hkdf(ikm, info=info, length=length)
    assert len(out) == length
    longer = hkdf(ikm, info=info, length=length + 16)
    assert longer[:length] == out


# -- Merkle ------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=40),
    st.sampled_from([2, 3, 128]),
)
def test_merkle_all_leaves_provable(blocks, arity):
    tree = MerkleTree.from_blocks(blocks, arity=arity)
    for index, block in enumerate(blocks):
        proof = tree.prove(index)
        assert MerkleTree.verify_proof(sha256(block), proof, tree.root, arity=arity)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=16), min_size=2, max_size=20),
    st.data(),
)
def test_merkle_detects_substitution(blocks, data):
    tree = MerkleTree.from_blocks(blocks, arity=2)
    index = data.draw(st.integers(min_value=0, max_value=len(blocks) - 1))
    proof = tree.prove(index)
    tampered = blocks[index] + b"!"
    assert not MerkleTree.verify_proof(
        sha256(tampered), proof, tree.root, arity=2
    )


# -- Shamir ------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**200),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.binary(min_size=4, max_size=16),
)
def test_shamir_round_trip(secret, threshold, extra, seed):
    from repro.crypto.shamir import DEFAULT_PRIME

    secret %= DEFAULT_PRIME
    num_shares = threshold + extra
    shares = split_secret(secret, threshold, num_shares, HmacDrbg(seed))
    # Use the *last* threshold shares, not the first, to vary indices.
    assert reconstruct_secret(shares[-threshold:], threshold) == secret
