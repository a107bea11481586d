"""mm-wave wireless interconnect: physical layer and MAC protocols.

Models the 60 GHz OOK transceivers (including the power-gated "sleepy"
mode), the channel organisation, and the two MAC protocols compared in the
paper (baseline token passing and the proposed control-packet MAC with
partial-packet transmission).
"""

from .channel import ChannelPlan, assign_channels
from .mac import (
    ControlPacketMac,
    MacProtocol,
    MacStatistics,
    TokenMac,
    TransmissionPlan,
)
from .transceiver import Transceiver, TransceiverSpec

__all__ = [
    "ChannelPlan",
    "ControlPacketMac",
    "MacProtocol",
    "MacStatistics",
    "TokenMac",
    "Transceiver",
    "TransceiverSpec",
    "TransmissionPlan",
    "assign_channels",
]
