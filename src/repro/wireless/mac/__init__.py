"""Medium access control protocols for the shared wireless channel."""

from .base import MacDataPlane, MacProtocol, MacStatistics
from .control_packet import ControlPacketMac, TransmissionPlan
from .fdma import FdmaMac
from .registry import (
    MacBuildContext,
    MacSpec,
    UnknownMacError,
    available_macs,
    mac_spec,
)
from .tdma import TdmaMac
from .token import TokenMac

__all__ = [
    "ControlPacketMac",
    "FdmaMac",
    "MacBuildContext",
    "MacDataPlane",
    "MacProtocol",
    "MacSpec",
    "MacStatistics",
    "TdmaMac",
    "TokenMac",
    "TransmissionPlan",
    "UnknownMacError",
    "available_macs",
    "mac_spec",
]
