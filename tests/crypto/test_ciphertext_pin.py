"""Ciphertext pins: SHA-256 digests of XTS and AEAD output at fixed keys
and inputs, recorded from the row-major AES round loop that preceded
the lane-major one.

The per-block XTS reference in ``test_modes.py`` would need 65,536
single-block AES calls to check one 1 MiB request, so these digests are
what hold the bulk path (tweak chain, both round loops and the XOR
with the tweaks) to the same bytes across changes to the core and
across the Python and numpy versions CI runs.
"""

from hashlib import sha256

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.modes import AeadCipher, XtsCipher

_DATA = HmacDrbg(b"ciphertext-pin:data").generate(256 * 4096)

# (key bytes, sector size, sectors, first sector) -> SHA-256 of the ciphertext.
_XTS_DIGESTS = {
    (32, 512, 1, 0):
        "767fcfd062cd619de70b0c84a9a00a1c51b7099efa65ff4525944eb5e625b95f",
    (32, 512, 1, 7):
        "9c96c2abdd7fa2bb0c1f936fd079614ec68054315c71b3b1c4ea09e6dc602c54",
    (32, 512, 1, 2**32 + 5):
        "bd0e5b11ed29895edffe224fde6469cacb71ba5ba3923b51cef590d5dc5e987c",
    (32, 512, 16, 0):
        "a2468bf19df2c28745f5f512f888451122a05d5a1ff15acdab28a7b6f6428b37",
    (32, 512, 16, 7):
        "9f0219c674d93f580cb05fddab2d07a579fa71f6baac8eed488c8268e8ed1e63",
    (32, 512, 16, 2**32 + 5):
        "d0a6f58ff14f53a14affa8277d01479583796903ecfe7922f10d21de73b10827",
    (32, 512, 256, 0):
        "0aaf14bb4e58e79ca33b2d47f516c864f77b7522e6f00fc677d7874de9fc3d26",
    (32, 512, 256, 7):
        "d5a45668bc4af9980bc6f4da5f61bb95e214a0febd797ef2282e10201f951aca",
    (32, 512, 256, 2**32 + 5):
        "98a696a284b34f9bde463818c20635c71abf50c3fc6da7d098b7a4b2a7a2fd03",
    (32, 4096, 1, 0):
        "bc1143f711f9279888b2c58f7f64e2dbb3329631b8e5411fc41ccceab2a172c9",
    (32, 4096, 1, 7):
        "a94e83304d1fe6cadcfa8c549b390dc3908ac376d1292b4ebd43eed7dd76ab27",
    (32, 4096, 1, 2**32 + 5):
        "93a3445c99b62ce03d2ee09af13a76984a7eabb8d2121a270029683ee80d77c5",
    (32, 4096, 16, 0):
        "e22793b94a32397dde9f5c4737b879d85b2804cfaf6870f21c717825b85b3f7d",
    (32, 4096, 16, 7):
        "695ac37630fe0ec2e9d9d8b8a3d91875d8076e8f67e3321a5661d460dfe22579",
    (32, 4096, 16, 2**32 + 5):
        "a7ba754cd0794dc4ac6d30d6f0d29b4bf3d546c2af12972284164b2e3ccfbcb5",
    (32, 4096, 256, 0):
        "a661f0d5a5c2aac311dc801c885c47a22edfe533e9ca1f14773ae91c7b770061",
    (32, 4096, 256, 7):
        "f5b54d10cf328639f98d6e13b9cd69d8ac6d9c3824a74c68822e464aa9c7c632",
    (32, 4096, 256, 2**32 + 5):
        "babd8ff7c6e61b374d7fea9837d6aa6991ac1359fb42b7b09d230e6f6b665985",
    (64, 512, 1, 0):
        "ff2f9d6ece00e9ff8cf0c4142d1a196ab0a2d8b0024d9f032f03d857bf2d1a5e",
    (64, 512, 1, 7):
        "35f20b8a9ca7f83acdcb1b1c376be9929a59804d3a850da13a62c5be3448ae32",
    (64, 512, 1, 2**32 + 5):
        "1ae732f3900991c7ba4d4d57e0c3ccdecd4d6dc1da4a001a079748f4beeb3a29",
    (64, 512, 16, 0):
        "e453a76d3214d13f82afa5ab821dd1f19e998e6929aec503e2fbe3d28637f7cf",
    (64, 512, 16, 7):
        "ad29800956a842d1db1e6be56314caa091c16d68a4443aa336608e651f4f0537",
    (64, 512, 16, 2**32 + 5):
        "aab5f5620d9a77aa1a66a64bf280977b267642d86a03cb6b4edfd0103041a21d",
    (64, 512, 256, 0):
        "61a03835a4187edf18d28352ec758f90c0aefb6e56a6a485f04811c227496fa7",
    (64, 512, 256, 7):
        "70cd595374880cbb27469eb43a021f734cde8cc5d7ce2baab3724a255faa9bf9",
    (64, 512, 256, 2**32 + 5):
        "0d7d245620f4d05e13e56bbb49e3a2af4328897851f962d1e39c961f03cbe56f",
    (64, 4096, 1, 0):
        "0f553208252802a86f8bf9e8b2e4a48c37ad8545d86be896e837a610ee12d654",
    (64, 4096, 1, 7):
        "56e6dbb7927fed08a3b17c8e70c49250fb81b47cc524ad26afceecea522ba094",
    (64, 4096, 1, 2**32 + 5):
        "0a341e693573b5bfa3d1b8b251ba84dd2247591762a5ac267de35ace62baecbe",
    (64, 4096, 16, 0):
        "ed4d3ea9b75c9ebb21edf23a54e55ec3914c40191fa14a5807b08ec431e261a2",
    (64, 4096, 16, 7):
        "debe6a69fea529a2e5aab642a34b0b7bca676d75266d01827a5ae968db707f85",
    (64, 4096, 16, 2**32 + 5):
        "ff78836e7fce723f70572d0b97f5d80947519e98a8e3475d473d837ff54a248b",
    (64, 4096, 256, 0):
        "dd2931e3679ef9af7ae39f6313ca7c66dff1f8e099fd8022b9ef7d89909bb82d",
    (64, 4096, 256, 7):
        "404ebaccc68906d248618ce798f1686bf22c74be789f367d6a8ad4fc71873c2e",
    (64, 4096, 256, 2**32 + 5):
        "30a2fb4cfb51b390a41422deea4f6858577e91fefd91bcd4803d670b050912bb",
}

# Record length -> SHA-256 of ``seal(nonce, plaintext, aad)``.
_AEAD_DIGESTS = {
    0: "3372dcfd7d13e6fb687236d6db83fabfd7d658ab1482238849ef39654bdbbb3f",
    1: "76e98360ed1dfee41b298c40b555d7673885fad001c64fbc037f796e0af6cd48",
    15: "948e70ab2d29c3b7957f739bae4ab3f2d8dfc06353e54f5164e87000b8a768e9",
    16: "a5d08e253e7d71a81c965e11cd44f337b3588ea4035aaac8fa5bde4910fb24f9",
    17: "8691f1f0434cb5ee4a4c983bde621f299cbafa3a701c9324bdb036d4af08c8ff",
    181: "5b70917bdc360168eaee8112358d1d91e9ebf02c9feec1ce5500c446e5b72298",
    1023: "64849ee6bec043caeaa4c6140802474cba3d443aa230009455073f1c3babeed0",
    1024: "188aa37f52752ec4ccaf1a4ee2b29b11224abb82e6af3aa25f9806b3a6746cf8",
    4096: "ac6f23bd3cb46beee4c4473362c6e6dd723f2f58d081e50f27e9579c7c8296f5",
}


@pytest.mark.parametrize("case", sorted(_XTS_DIGESTS))
def test_xts_ciphertext_is_pinned(case):
    key_size, sector_size, sectors, first_sector = case
    xts = XtsCipher(HmacDrbg(b"ciphertext-pin:xts:%d" % key_size).generate(key_size),
                    sector_size=sector_size)
    plaintext = _DATA[: sector_size * sectors]
    ciphertext = xts.encrypt(plaintext, first_sector)
    assert sha256(ciphertext).hexdigest() == _XTS_DIGESTS[case]
    assert xts.decrypt(ciphertext, first_sector) == plaintext


@pytest.mark.parametrize("length", sorted(_AEAD_DIGESTS))
def test_aead_seal_is_pinned(length):
    aead = AeadCipher(HmacDrbg(b"ciphertext-pin:aead").generate(32))
    nonce = length.to_bytes(12, "big")
    sealed = aead.seal(nonce, _DATA[:length], aad=b"record")
    assert sha256(sealed).hexdigest() == _AEAD_DIGESTS[length]
    assert aead.open(nonce, sealed, aad=b"record") == _DATA[:length]
