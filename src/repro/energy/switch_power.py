"""Power model of the wormhole/VC NoC switch.

The paper synthesises its switches from RTL with 65 nm standard cells and
feeds the resulting dynamic and static power into the cycle-accurate
simulator.  This module is the analytical substitute for the static part:
a static power that scales with the amount of buffering a switch instance
carries, so architectures that need deeper buffers (e.g. the token-MAC
wireless interface) pay for them.  The per-flit dynamic traversal energy is
:attr:`Technology.switch_dynamic_energy_pj_per_flit` itself.
"""

from __future__ import annotations

from .technology import Technology

#: Number of ports of the reference switch the static figure was taken for.
REFERENCE_PORTS = 5


def switch_static_power_mw(
    technology: Technology,
    num_ports: int,
    virtual_channels: int,
    buffer_depth_flits: int,
) -> float:
    """Static power of a switch with the given port/buffer organisation [mW].

    Static power scales linearly with the number of ports (crossbar and
    allocators) and with the total buffered flits (registers/SRAM), around
    the reference 5-port, 8 VC x 16 flit configuration of the paper.
    """
    if num_ports <= 0:
        raise ValueError(f"num_ports must be positive, got {num_ports}")
    if virtual_channels <= 0:
        raise ValueError(f"virtual_channels must be positive, got {virtual_channels}")
    if buffer_depth_flits <= 0:
        raise ValueError(f"buffer_depth_flits must be positive, got {buffer_depth_flits}")
    total_buffer_flits = num_ports * virtual_channels * buffer_depth_flits
    reference_buffer_flits = REFERENCE_PORTS * 8 * 16
    port_scale = num_ports / REFERENCE_PORTS
    # Half of the reference static power is attributed to port logic and
    # half to buffering; each part scales with its own driver.
    base = technology.switch_static_power_mw
    static_mw = 0.5 * base * port_scale + 0.5 * base * (total_buffer_flits / reference_buffer_flits)
    # Extra buffering beyond the reference also pays the explicit
    # per-flit leakage figure so oversized WI buffers are not free.
    extra_flits = max(0, total_buffer_flits - reference_buffer_flits)
    static_mw += extra_flits * technology.buffer_static_power_uw_per_flit * 1e-3
    return static_mw
