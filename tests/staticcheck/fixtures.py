"""Known-leaky and known-safe source snippets for the analyzer tests.

Each fixture is a self-contained module source string; the tests feed
them to :func:`repro.staticcheck.analyze_module_source` and assert on
the findings.  Keeping them here (rather than inline) makes each sink
kind's canonical example easy to eyeball.
"""

LEAKY_TABLE_LOOKUP = '''
SBOX = (0x1, 0xA, 0x4, 0xC, 0x6, 0xF, 0x3, 0x9,
        0x2, 0xD, 0xB, 0x7, 0x5, 0x0, 0x8, 0xE)

def sub_cells(state, master_key):
    index = (state ^ master_key) & 0xF
    return SBOX[index]
'''

LEAKY_BRANCH = '''
def check(master_key):
    if master_key & 1:
        return 1
    return 0
'''

LEAKY_WHILE_LOOP = '''
def count_bits(master_key):
    total = 0
    while master_key:
        total += master_key & 1
        master_key >>= 1
    return total
'''

LEAKY_FOR_RANGE = '''
def burn(master_key):
    total = 0
    for _ in range(master_key & 0xFF):
        total += 1
    return total
'''

LEAKY_MEMORY_ACCESS = '''
class MemoryAccess:
    def __init__(self, address, round_index=0, segment=0,
                 table="sbox", index=0):
        self.address = address

def load(master_key):
    return MemoryAccess(address=0x1000 + (master_key & 0xF))
'''

LEAKY_VIA_HELPER_ANNOTATION = '''
from repro.staticcheck.secrets import secret_params

SBOX = tuple(range(16))

@secret_params("value")
def helper(value):
    return SBOX[value & 0xF]

def outer(data):
    return helper(data)
'''

LEAKY_THROUGH_LOOP_CARRY = '''
SBOX = tuple(range(16))

def rounds(plaintext, master_key):
    state = plaintext
    for _ in range(4):
        out = SBOX[state & 0xF]
        state = out ^ master_key
    return state
'''

SAFE_PUBLIC_INDEX = '''
SBOX = tuple(range(16))

def sub_cells(state):
    return SBOX[state & 0xF]
'''

SAFE_DECLASSIFIED = '''
from repro.staticcheck.secrets import declassify

SBOX = tuple(range(16))

def self_test(master_key):
    ok = declassify(master_key != 0)
    if ok:
        return SBOX[3]
    return 0
'''

SAFE_SECRET_VALUE_PUBLIC_INDEX = '''
def read(master_key, table_of_secrets):
    # Reading secret *data* at a public address is not an access leak.
    return table_of_secrets[3] ^ master_key
'''

SUPPRESSED_INLINE = '''
SBOX = tuple(range(16))

def sub_cells(master_key):
    if master_key & 1:  # staticcheck: ignore[branch]
        pass
    return SBOX[master_key & 0xF]  # staticcheck: ignore
'''

RESHAPED_STYLE_TABLE = '''
PACKED = tuple(range(8))

def lookup(master_key):
    row = PACKED[(master_key & 0xF) >> 1]
    return row & 0xF
'''

SECRET_ATTRIBUTE_CLASS = '''
from repro.staticcheck.secrets import secret_attributes

SBOX = tuple(range(16))

@secret_attributes("register")
class KeyState:
    def __init__(self, register):
        self.register = register

    def leak(self):
        return SBOX[self.register & 0xF]
'''


LEAKY_MAP_GETITEM = '''
from operator import getitem

SBOX = tuple(range(16))

def sub_bytes(master_key):
    return list(map(getitem, (SBOX, SBOX), master_key.to_bytes(2, "little")))
'''

SAFE_MAP_GETITEM_PUBLIC_INDICES = '''
from operator import getitem

def read(master_key, data):
    return list(map(getitem, (master_key, master_key), data))
'''
