"""Pins what the network builder makes of every built-in figure system.

One sha256 per distinct ``task.effective_config()`` of the built-in
scenario documents at ``fast`` covers the topology's link list, every
output port's characteristics, the summed switch static power, each MAC's
channel and members, and each transceiver's gating and power figures.
A change to how links, switches, channels or transceivers are built from
the configuration moves a hash; a refactor of the build path must not.
"""

from __future__ import annotations

import copy
import hashlib

from repro.core.architectures import build_system
from repro.noc.network import Network
from repro.scenario import builtin_scenario, builtin_scenario_names, compile_scenario

BUILD_PINS = {
    "fig2 4C4M (Substrate) control_packetx6": "526cd099bb94c5a1152a6144585f01d376ad2d702c1ac20ae205ce7a7aa516da",
    "fig2 4C4M (Interposer) control_packetx6": "54070c6600209faf424222a1473cd696914bdc3f577c15ffa638284b67ec283d",
    "fig2 4C4M (Wireless) control_packetx6": "f5f858ece9c45be289e80d581d6f2cfadd25d4fe8ab9b1d7ef4c0fb1046e112f",
    "fig4 1C4M (Interposer) control_packetx6": "ed9e08f79fe403bf249cd724d1685a577f56ea1a31fcf533e93862d6dfb72707",
    "fig4 1C4M (Wireless) control_packetx6": "ab710e6ee5b70d0295db3a0a482840810f95db53e91390eb1fc737f2d4c613ff",
    "fig4 8C4M (Interposer) control_packetx6": "22db922301700ed1d9056d8f913ac0953dce8567a1d6f51b448722d34d6b4116",
    "fig4 8C4M (Wireless) control_packetx6": "cb59e26386fe6f774cefa260627a9a08c21331f866fb384dc6cba9fa67da9a1e",
    "fig7 1C4M (Substrate) control_packetx6": "ed9e08f79fe403bf249cd724d1685a577f56ea1a31fcf533e93862d6dfb72707",
    "fig7 4C4M (Wireless) control_packetx6": "dc7b23ba72e93fb455c5c8f5be1db97ba449f53d12e4e8823a5124c8e8bbbf0a",
    "fig8 4C4M (Wireless) control_packetx1": "e640d5ee850ae219971765a390be4029dc9acca9ce11a8fb3e5de79e4783c3e7",
    "fig8 4C4M (Wireless) control_packetx2": "80171b97fc3300bf30a8206df00b061b00688d684625cfe345955c9ee700b8ef",
    "fig8 4C4M (Wireless) fdmax1": "0ed268e2dad36cf22af53cb24a833f84168fa9907593c2817b76c1bf38f3eac6",
    "fig8 4C4M (Wireless) fdmax2": "b93d0fa7790587735eea0cf5d716b297cc33f9e30466ff2ae1473e9940cdc22c",
    "fig8 4C4M (Wireless) tdmax1": "0ed268e2dad36cf22af53cb24a833f84168fa9907593c2817b76c1bf38f3eac6",
    "fig8 4C4M (Wireless) tdmax2": "b93d0fa7790587735eea0cf5d716b297cc33f9e30466ff2ae1473e9940cdc22c",
    "fig8 4C4M (Wireless) tokenx1": "a048ad1cf09056b93249bbb01ec5e28e6073ce42e9c718213ebed0104e82e84e",
    "fig8 4C4M (Wireless) tokenx2": "3ea5d383395566648078192088a284c2b7281b01181f4ea7e1b1e2b61dd2878a",
    "fig8 8C4M (Wireless) control_packetx1": "d8ce4ec434cb527e0dbf879ff8047baebfc676aeda760b50e9c4cfe2ff4f8369",
    "fig8 8C4M (Wireless) control_packetx2": "21f78ebb0e70ecc6add94642911367d50bf44ee1aba1999eb28957eeb2056ede",
    "fig8 8C4M (Wireless) fdmax1": "89ee319cc48e25d33581b270e0f17debfec2b0f705b3a78a21c9834ccb77c520",
    "fig8 8C4M (Wireless) fdmax2": "51685c52afea9be0f4b2d9c5de3d7c84c4b7118c6b518620bdea3c5fc337b281",
    "fig8 8C4M (Wireless) tdmax1": "89ee319cc48e25d33581b270e0f17debfec2b0f705b3a78a21c9834ccb77c520",
    "fig8 8C4M (Wireless) tdmax2": "51685c52afea9be0f4b2d9c5de3d7c84c4b7118c6b518620bdea3c5fc337b281",
    "fig8 8C4M (Wireless) tokenx1": "5e394386f91a16d9306f449197f2a491cd83613f9edef30bf687d681fa168db7",
    "fig8 8C4M (Wireless) tokenx2": "6ce39d12bf761c6bd922fe4ac13c8fa30655880c59c592c702179071542cc544",
}


def _build_digest(config) -> str:
    system = build_system(config)
    network = Network(system.topology, config.network)
    digest = hashlib.sha256()

    def feed(*items) -> None:
        digest.update(repr(items).encode())

    for link in system.topology.links:
        feed(link.link_id, link.src, link.dst, link.kind.value, link.length_mm)
    ports = [
        port
        for switch_id in sorted(network.switches)
        for port in network.switches[switch_id].output_ports.values()
    ]
    for index, port in enumerate(ports):
        feed(index, port.switch.switch_id, port.key, port.link)
    feed(network.total_switch_static_power_mw)
    fabric = network.wireless_fabric
    if fabric is not None:
        for mac in fabric.macs:
            feed(mac.channel_id, tuple(mac.wi_switch_ids))
        for wi_id, transceiver in sorted(fabric.transceivers.items()):
            # The power figures, read through the static energy of 1000
            # awake then 1000 power-gated cycles of a copy.
            probe = copy.copy(transceiver)
            probe.power_gating = True
            probe.settle(1000)
            awake_pj = probe.static_energy_pj()
            probe.set_asleep(True, 1000)
            probe.settle(2000)
            feed(wi_id, transceiver.power_gating, awake_pj, probe.static_energy_pj() - awake_pj)
    return digest.hexdigest()


def test_builtin_figure_systems_pin_their_build():
    systems = {}
    for name in builtin_scenario_names():
        for task in compile_scenario(builtin_scenario(name, "fast")):
            config = task.effective_config()
            wireless = config.network.wireless
            key = f"{name} {config.name} {wireless.mac}x{wireless.num_channels}"
            systems.setdefault(config, key)
    assert len(set(systems.values())) == len(systems), "two systems share a key"
    digests = {key: _build_digest(config) for config, key in systems.items()}
    assert digests == BUILD_PINS
