"""64b/66b PCS block constants (IEEE 802.3 Clause 49).

A 66-bit block is a 2-bit sync header followed by 64 payload bits:

* sync ``0b01``: eight data octets;
* sync ``0b10``: a control block whose first octet is the *block type*.

The all-idle control block (type ``0x1E``) carries eight 7-bit control
characters.  The idle character ``/I/`` is 0x00, and the standard mandates
at least twelve ``/I/`` (hence at least one full idle block) between any two
Ethernet frames.  DTP hides its 56-bit protocol messages in exactly these
eight 7-bit characters (paper Section 4.4) and restores them to zeros before
the block reaches the MAC.

The simulation moves each block as a 66-bit int, so this module holds only
the Clause 49 constants that build and check that int.  The block object
model (``Block66`` and its helpers) is test support in ``tests/wire/blocks.py``.
"""

SYNC_DATA = 0b01
SYNC_CONTROL = 0b10

#: Block type of an all-control (idle) block in Clause 49.
BLOCK_TYPE_IDLE = 0x1E

#: Number of 7-bit control characters per idle block.
CONTROL_CHARS_PER_BLOCK = 8

#: Bits available to DTP inside one idle block.
IDLE_PAYLOAD_BITS = 7 * CONTROL_CHARS_PER_BLOCK  # 56

IDLE_PAYLOAD_MASK = (1 << IDLE_PAYLOAD_BITS) - 1

#: A 66-bit idle /E/ block with zeroed control characters, as an int.
#: ``IDLE_WIRE_BASE | bits56`` is the wire image of a DTP message.
IDLE_WIRE_BASE = (SYNC_CONTROL << 64) | (BLOCK_TYPE_IDLE << 56)

#: Mask selecting the sync header and block-type octet of a 66-bit int.
#: A received block is a well-formed idle block iff
#: ``wire_bits & IDLE_WIRE_HEADER_MASK == IDLE_WIRE_BASE``.
IDLE_WIRE_HEADER_MASK = (0b11 << 64) | (0xFF << 56)
