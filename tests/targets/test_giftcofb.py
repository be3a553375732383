"""GIFT-COFB: the AEAD construction and the nonce-channel attack.

The second proof obligation of the CipherTarget refactor: COFB's first
block cipher call is ``Y0 = E_K(N)`` on the raw nonce, so GRINCH's
crafted plaintexts survive verbatim as crafted *nonces* — recovering
the full GIFT-128 key of the AEAD.  Interior blocks are masked by the
unknown chaining state, so the nonce call is also the *only* crafting
channel (the documented negative result in docs/targets.md).
"""

import pytest

from repro.core import AttackConfig, GrinchAttack
from repro.gift.cofb import GiftCofb
from repro.seeding import derive_key
from repro.staticcheck import declassify
from repro.targets import get_target

NONCE = 0x000102030405060708090A0B0C0D0E0F


class TestAead:
    def test_seal_open_roundtrip(self):
        aead = GiftCofb(derive_key(128, 1))
        for message in (b"", b"x", b"sixteen byte blk", b"a" * 37):
            for ad in (b"", b"header", b"h" * 16):
                ciphertext, tag = aead.seal(NONCE, ad, message)
                assert aead.open(NONCE, ad, ciphertext, tag) == message

    def test_ciphertext_length_matches_message(self):
        aead = GiftCofb(derive_key(128, 2))
        ciphertext, _ = aead.seal(NONCE, b"", b"a" * 21)
        assert len(ciphertext) == 21

    def test_tag_is_checked(self):
        aead = GiftCofb(derive_key(128, 3))
        ciphertext, tag = aead.seal(NONCE, b"ad", b"message")
        with pytest.raises(ValueError):
            aead.open(NONCE, b"ad", ciphertext, bytes(16))
        with pytest.raises(ValueError):
            aead.open(NONCE, b"tampered", ciphertext, tag)

    def test_distinct_nonces_give_distinct_streams(self):
        aead = GiftCofb(derive_key(128, 4))
        a, _ = aead.seal(NONCE, b"", b"\x00" * 16)
        b, _ = aead.seal(NONCE + 1, b"", b"\x00" * 16)
        assert a != b


class TestNonceChannel:
    def test_victim_first_block_is_plain_gift128(self):
        """Y0 = E_K(N): the nonce channel is bit-for-bit GIFT-128, which
        is what lets the unchanged pipeline attack the AEAD."""
        from repro.targets.gift import Gift128

        key = derive_key(128, 5)
        victim = get_target("giftcofb").make_victim(key)
        assert victim.encrypt(NONCE) == Gift128(key).encrypt(NONCE)
        assert victim.encrypt(NONCE) == GiftCofb(key).first_block(NONCE)

    def test_first_round_attack_through_the_nonce(self):
        target = get_target("giftcofb")
        planted = derive_key(128, 6)
        config = AttackConfig(seed=6)
        victim = target.make_victim(planted)
        first = GrinchAttack(victim, config).attack_first_round()
        assert first.recovered_bits == target.bits_per_round

    def test_full_aead_key_recovery_via_crafted_nonces(self):
        target = get_target("giftcofb")
        planted = derive_key(128, 7)
        config = AttackConfig(seed=7)
        victim = target.make_victim(planted)
        result = GrinchAttack(victim, config).recover_master_key()
        recovered = declassify(result.master_key)
        assert recovered == planted
        # The recovered key drives the full AEAD, not just the nonce
        # call: sealing with it reproduces the victim's output.
        message, ad = b"attack at dawn!!", b"hdr"
        assert GiftCofb(recovered).seal(NONCE, ad, message) == \
            GiftCofb(planted).seal(NONCE, ad, message)
