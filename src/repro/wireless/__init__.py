"""mm-wave wireless interconnect: physical layer and MAC protocols.

Models the 60 GHz OOK transceivers (including the power-gated "sleepy"
mode) and the MAC protocols that arbitrate each channel: the two compared
in the paper (baseline token passing and the proposed control-packet MAC
with partial-packet transmission) plus static TDMA and FDMA schedules.
"""

from .mac import (
    ControlPacketMac,
    MacProtocol,
    MacStatistics,
    TokenMac,
    TransmissionPlan,
)
from .transceiver import Transceiver

__all__ = [
    "ControlPacketMac",
    "MacProtocol",
    "MacStatistics",
    "TokenMac",
    "Transceiver",
    "TransmissionPlan",
]
