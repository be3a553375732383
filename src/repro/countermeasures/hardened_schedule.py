"""Countermeasure 2 (Section IV-C): hardening the key schedule.

"The second countermeasure is to modify the UpdateKey operation ...
If the UpdateKey of the first round prepares the sub-key to be used in
the next round by applying some computation with bits that were not
used yet, the key retrieval would not be possible."

The paper leaves the concrete computation open (and defers its
cryptanalysis); this module implements one instantiation of the recipe:
before a round key is used, it is whitened with an S-box mix of key
words that GRINCH has not yet observed at that point of the attack.
The crucial property is *not* secrecy of the whitening function (it is
public) but that each effective round key now depends on bits from the
opposite half of the master key, so recovering the effective round keys
of rounds 1-4 yields 128 equations in 128 unknowns that GRINCH's simple
"concatenate the quarters" reconstruction cannot solve — and, in
particular, the attacker can no longer predict round 5's key from round
1's, which breaks the verification stage too.

The leak itself (S-box accesses through the cache) is *not* removed,
and the evaluation shows that: elimination still converges, but the
assembled master key fails verification.
"""

from __future__ import annotations

from typing import List, Tuple

from ..targets.gift import GIFT_SBOX, TracedGiftCipher, round_keys
from ..targets.layout import TableLayout
from ..staticcheck.secrets import secret_params


@secret_params("word", "tweak")
def whiten_word(word: int, tweak: int) -> int:
    """Mix a 16-bit round-key word with a 16-bit tweak, nibble-wise.

    Each nibble of ``word`` is XORed with the S-box image of the
    corresponding ``tweak`` nibble — cheap (four table lookups, which a
    hardware UpdateKey would do with the existing S-box circuit) and
    nonlinear in the tweak.
    """
    if not 0 <= word < (1 << 16) or not 0 <= tweak < (1 << 16):
        raise ValueError("whitening operates on 16-bit words")
    result = 0
    for nibble in range(4):
        w = (word >> (4 * nibble)) & 0xF
        t = (tweak >> (4 * nibble)) & 0xF
        result |= (w ^ GIFT_SBOX[t]) << (4 * nibble)
    return result


def hardened_round_keys(master_key: int, rounds: int
                        ) -> List[Tuple[int, int]]:
    """Round keys with the hardened UpdateKey for GIFT-64.

    Round ``r`` (1-based, ``r <= 4``) whitens its ``(U, V)`` with the
    two master-key words *diagonally opposite* in the key state — words
    the standard schedule would only consume two rounds later, i.e.
    "bits that were not used yet" at attack time.  Later rounds keep the
    standard schedule (their key material is already mixed).
    """
    keys = round_keys(master_key, rounds, width=64)
    words = [(master_key >> (16 * i)) & 0xFFFF for i in range(8)]
    hardened = []
    for round_index, (u, v) in enumerate(keys, start=1):
        if round_index <= 4:
            u_tweak = words[(2 * round_index + 3) % 8]
            v_tweak = words[(2 * round_index + 2) % 8]
            hardened.append(
                (whiten_word(u, u_tweak), whiten_word(v, v_tweak))
            )
        else:
            hardened.append((u, v))
    return hardened


class HardenedKeyScheduleGift64(TracedGiftCipher):
    """GIFT-64 with the hardened UpdateKey of countermeasure 2.

    Note this is *not* standard GIFT (ciphertexts differ); it models the
    paper's proposed modification so the attack's failure mode can be
    demonstrated.  Encrypt/decrypt remain mutually inverse.
    """

    def __init__(self, master_key: int, rounds: int = 28,
                 layout: TableLayout = TableLayout()) -> None:
        super().__init__(master_key, width=64, rounds=rounds, layout=layout)

    def compute_round_keys(self) -> List[Tuple[int, int]]:
        return hardened_round_keys(self.master_key, self.rounds)
