"""GIFT-COFB as a :class:`CipherTarget`: GRINCH through the nonce.

Does GRINCH's crafted-input attack survive COFB's feedback?  The
analysis (full write-up in ``docs/targets.md``) splits in two:

* **Interior block inputs: no.**  Every block-cipher call after the
  first receives ``pad(M_i) XOR G(Y_{i-1}) XOR (L_i || 0^64)`` — the
  feedback of the previous *output* and a doubled secret mask derived
  from ``Y0``.  Both are unknown to the attacker at crafting time, so
  Algorithm 2 cannot place chosen values at an interior block input.
  This is the documented negative result.
* **The first call: yes.**  ``Y0 = E_K(N)`` encrypts the attacker's
  nonce directly with full-round GIFT-128, so the complete GRINCH
  pipeline runs unchanged with the *nonce* as the crafting channel
  (``crafting_channel = "nonce"``) — nonce-misuse is not even required,
  since every crafted nonce may be fresh.

The target therefore reuses GIFT-128's entire description and algebra; the
only new piece is the victim, which wraps the traced GIFT-128 core the
way COFB's first call uses it and exposes the surrounding AEAD for
end-to-end key-confirmation in tests.

One modelling simplification, stated openly: ``Y0`` never leaves a real
COFB implementation, so the pipeline's known-pair verification (which
compares ``victim.encrypt`` against the reference block cipher) stands
in for confirming the recovered key against an observed
ciphertext/tag pair — the tests close that gap by re-sealing a message
with the recovered key.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..gift.cofb import GiftCofb
from ..gift.lut import TracedGift128
from .gift import GiftTarget
from .layout import TableLayout
from .protocol import TracedVictim
from .registry import register_target


class CofbNonceVictim:
    """COFB's first block-cipher call, as a traceable victim.

    Delegates the traced surface to the underlying GIFT-128 LUT core —
    the address stream of ``E_K(N)`` is identical whether the call was
    made by COFB or by a bare block-cipher user — and carries the AEAD
    object so tests can seal/open with the same key material.
    """

    attack_target = "giftcofb"

    def __init__(self, master_key: int, rounds: int = 40,
                 layout: TableLayout = TableLayout()) -> None:
        self._core = TracedGift128(master_key, rounds=rounds, layout=layout)
        self.aead = GiftCofb(master_key)
        self.master_key = master_key
        self.width = self._core.width
        self.rounds = self._core.rounds
        self.layout = self._core.layout
        self.sbox_load_addresses = self._core.sbox_load_addresses
        self.perm_load_addresses = self._core.perm_load_addresses

    def encrypt(self, nonce: int) -> int:
        """``Y0 = E_K(N)`` — the nonce-channel observable."""
        return self._core.encrypt(nonce)

    def encrypt_traced(self, nonce: int, max_rounds: Optional[int] = None):
        return self._core.encrypt_traced(nonce, max_rounds)

    def sbox_indices_by_round(self, nonce: int,
                              max_rounds: int) -> List[List[int]]:
        return self._core.sbox_indices_by_round(nonce, max_rounds)

    def sbox_index_mask(self, nonce: int, first_round: int,
                        last_round: int) -> int:
        return self._core.sbox_index_mask(nonce, first_round, last_round)

    def seal(self, nonce: int, associated_data: bytes,
             plaintext: bytes) -> Tuple[bytes, int]:
        """The full AEAD operation whose first internal call the
        attack observes."""
        return self.aead.seal(nonce, associated_data, plaintext)


class GiftCofbTarget(GiftTarget):
    """GIFT-COFB's nonce channel: GIFT-128 algebra, AEAD victim."""

    crafting_channel = "nonce"

    def __init__(self) -> None:
        super().__init__("giftcofb", width=128, rounds=40)

    def make_victim(self, master_key: int,
                    layout: Optional[TableLayout] = None,
                    rounds: Optional[int] = None) -> TracedVictim:
        return CofbNonceVictim(
            master_key,
            rounds=self.rounds if rounds is None else rounds,
            layout=layout if layout is not None else TableLayout(),
        )
    # reference_encrypt is inherited: Y0 is a plain GIFT-128 encryption.


giftcofb = register_target(GiftCofbTarget())
