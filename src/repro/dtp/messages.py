"""DTP protocol messages (paper Section 4.4).

A DTP message is 56 bits — exactly the eight 7-bit idle characters of one
/E/ control block — laid out as a 3-bit message type followed by a 53-bit
payload.  The payload carries the 53 least-significant bits of the sender's
106-bit counter; BEACON_MSB occasionally carries the high half so the low
half's ~667-day wrap never loses time.

An optional parity mode (paper Section 3.2) reserves the payload's top bit
for even parity over the counter's three LSBs, shrinking the counter field
to 52 bits; it lets the receiver reject exactly the single-bit errors that
matter most.
"""

from __future__ import annotations

import enum

from ..phy.ber import parity_of_lsbs

#: A DTP message is one idle block's worth of control characters: a
#: 3-bit type above a 53-bit payload, 56 bits in all.
TYPE_BITS = 3
PAYLOAD_BITS = 53
PAYLOAD_MASK = (1 << PAYLOAD_BITS) - 1

#: The counter is a 106-bit integer (paper Section 4.2), sent as 2 x 53 bits.
COUNTER_LOW_BITS = 53
COUNTER_LOW_MASK = (1 << COUNTER_LOW_BITS) - 1

#: Payload layout in parity mode: top bit parity, 52-bit counter field.
PARITY_PAYLOAD_BITS = 52
PARITY_PAYLOAD_MASK = (1 << PARITY_PAYLOAD_BITS) - 1


class MessageType(enum.IntEnum):
    """The five DTP message types (3 bits; LOG is our instrumentation)."""

    INIT = 0
    INIT_ACK = 1
    BEACON = 2
    BEACON_JOIN = 3
    BEACON_MSB = 4
    #: Not part of the protocol: carries the measurement log records the
    #: paper's evaluation methodology (Section 6.2) injects in the PHY.
    LOG = 5


#: Decode table: 3-bit type code -> MessageType (or None for the two
#: unassigned codes, which the port drops as undecodable).
TYPE_TABLE = tuple(
    MessageType(code) if code in MessageType._value2member_map_ else None
    for code in range(1 << TYPE_BITS)
)

#: Encode table: MessageType -> type code already shifted into position, so
#: a message's 56 bits are ``SHIFTED_TYPE[mtype] | payload``.
SHIFTED_TYPE = {mtype: int(mtype) << PAYLOAD_BITS for mtype in MessageType}


# ----------------------------------------------------------------------
# Counter <-> payload helpers
# ----------------------------------------------------------------------
def counter_low(counter: int) -> int:
    """The 53 LSBs of a counter — what BEACON/INIT messages carry."""
    return counter & COUNTER_LOW_MASK

def counter_high(counter: int) -> int:
    """The 53 MSBs of a counter — what BEACON_MSB carries."""
    return (counter >> COUNTER_LOW_BITS) & COUNTER_LOW_MASK


def reconstruct_counter(low: int, reference: int, bits: int = COUNTER_LOW_BITS) -> int:
    """Recover a full counter from its ``bits`` LSBs near a reference.

    Picks the value congruent to ``low`` (mod 2^bits) closest to
    ``reference``, a tie going to the smaller one: the unique such value
    in ``[reference - 2^(bits-1), reference + 2^(bits-1))``.  With beacons
    microseconds apart and a ~667-day wrap this is always unambiguous.
    """
    modulus = 1 << bits
    # The wrapped difference, brought into [-half, half).
    delta = (low - reference) & (modulus - 1)
    if delta >= modulus >> 1:
        delta -= modulus
    return reference + delta


def payload_with_parity(counter: int) -> int:
    """Build a parity-protected payload: 52 counter LSBs + parity bit."""
    field = counter & PARITY_PAYLOAD_MASK
    return (parity_of_lsbs(field) << PARITY_PAYLOAD_BITS) | field


def check_parity(payload: int) -> bool:
    """Validate a parity-protected payload."""
    field = payload & PARITY_PAYLOAD_MASK
    parity = payload >> PARITY_PAYLOAD_BITS
    return parity == parity_of_lsbs(field)


def parity_counter_field(payload: int) -> int:
    """Extract the 52-bit counter field from a parity-protected payload."""
    return payload & PARITY_PAYLOAD_MASK
