"""SynFull-style application traffic generation.

Maps an :class:`~repro.traffic.applications.ApplicationProfile` onto the
multichip system the way the paper does for Fig. 6: "multiple threads of the
same application running on the multichip system where each processing chip
executes a single thread, and the DRAM stacks are shared among threads".

The generator is a Markov-modulated process:

* a *phase* chain (coarse behaviour changes over the run),
* a *burst* chain per core (short periods of elevated injection, the
  hallmark of coherence storms in the SynFull models), and
* per-packet destination selection: memory accesses go to the shared DRAM
  stacks (with a home-stack bias per chip), coherence traffic goes mostly to
  cores of the same chip (same thread) with a per-application fraction
  crossing chips.

Memory reads produce reply packets (cache-line sized) from the vault back to
the requesting core, so memory-bound applications load the M-C links in both
directions, as in the original traces.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from ..topology.graph import TopologyGraph
from .applications import ApplicationProfile, get_profile
from .base import TrafficModel, TrafficRequest
from .rng import bernoulli, choose_other, make_rng


class SynfullApplicationTraffic(TrafficModel):
    """Markov-modulated application traffic for the multichip system."""

    def __init__(
        self,
        topology: TopologyGraph,
        profile: ApplicationProfile,
        rate_scale: float = 1.0,
        memory_replies: bool = True,
        home_stack_bias: float = 0.6,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(topology)
        if rate_scale <= 0:
            raise ValueError("rate_scale must be positive")
        if not 0.0 <= home_stack_bias <= 1.0:
            raise ValueError("home_stack_bias must be in [0, 1]")
        self._profile = profile
        self._rate_scale = rate_scale
        self._memory_replies = memory_replies
        self._home_stack_bias = home_stack_bias
        self._seed = seed
        self._rng = make_rng(seed)

        self._core_region: Dict[int, int] = {
            e.endpoint_id: e.region_id for e in topology.cores
        }
        self._cores_by_region: Dict[int, List[int]] = {}
        for endpoint in topology.cores:
            self._cores_by_region.setdefault(endpoint.region_id, []).append(
                endpoint.endpoint_id
            )
        self._vaults_by_stack: Dict[int, List[int]] = {}
        for endpoint in topology.memory_vaults:
            self._vaults_by_stack.setdefault(endpoint.region_id, []).append(
                endpoint.endpoint_id
            )
        self._stack_ids = sorted(self._vaults_by_stack)
        self._phases = profile.effective_phases
        #: Burst cycles left per core, aligned with ``self._cores``.
        self._burst_remaining: List[int] = [0] * len(self._cores)
        self._phase_index = 0
        self._phase_elapsed = 0

    @classmethod
    def from_name(
        cls,
        topology: TopologyGraph,
        application: str,
        **kwargs,
    ) -> "SynfullApplicationTraffic":
        """Build a generator from a built-in application name."""
        return cls(topology, get_profile(application), **kwargs)

    @property
    def profile(self) -> ApplicationProfile:
        """The application profile driving this generator."""
        return self._profile

    def reset(self) -> None:
        """Restore all Markov state and the RNG."""
        self._rng = make_rng(self._seed)
        self._burst_remaining = [0] * len(self._cores)
        self._phase_index = 0
        self._phase_elapsed = 0

    def phase_token(self) -> Optional[object]:
        """The current phase index (re-anchors the kernel's watchdog)."""
        return self._phase_index

    # ------------------------------------------------------------------
    # Phase chain (the per-core burst chain runs inline in generate).
    # ------------------------------------------------------------------

    def _current_phase(self):
        phases = self._phases
        return phases[self._phase_index % len(phases)]

    def _advance_phase(self) -> None:
        phases = self._phases
        if len(phases) == 1:
            return
        phase = self._current_phase()
        # Phase length is proportional to its weight, normalised to a
        # nominal 1000-cycle epoch so short simulations still see phases.
        duration = max(1, int(1000 * phase.weight))
        self._phase_elapsed += 1
        if self._phase_elapsed >= duration:
            self._phase_elapsed = 0
            self._phase_index = (self._phase_index + 1) % len(phases)

    # ------------------------------------------------------------------
    # Destination selection.
    # ------------------------------------------------------------------

    def _pick_memory_vault(self, core: int) -> int:
        if not self._stack_ids:
            raise ValueError("application traffic requires memory stacks")
        region = self._core_region[core]
        # Home stack: chips are mapped round-robin onto stacks so each
        # thread has an affinity stack, with the remaining accesses spread
        # over all stacks (shared data).
        home_stack = self._stack_ids[region % len(self._stack_ids)]
        if bernoulli(self._rng, self._home_stack_bias):
            stack = home_stack
        else:
            stack = self._rng.choice(self._stack_ids)
        return self._rng.choice(self._vaults_by_stack[stack])

    def _pick_coherence_peer(self, core: int) -> int:
        region = self._core_region[core]
        same_chip = [c for c in self._cores_by_region[region] if c != core]
        cross = bernoulli(self._rng, self._profile.cross_thread_fraction)
        if cross or not same_chip:
            return choose_other(self._rng, self._cores, core)
        return self._rng.choice(same_chip)

    # ------------------------------------------------------------------
    # TrafficModel interface.
    # ------------------------------------------------------------------

    def generate(self, cycle: int) -> Iterator[TrafficRequest]:
        """Burst chain, injection trial and destination per core.

        Everything that depends only on the cycle (the phase, its memory
        fraction, the plain and bursting injection rates) is computed once
        per cycle, and the per-core coin flips are inlined (one bound
        ``random()`` call against a hoisted threshold) instead of going
        through :func:`repro.traffic.rng.bernoulli`.  The draw sequence is
        bit-identical to the helper: a probability of exactly 0 or 1
        consumes no draw, anything else consumes one ``random()`` per
        trial.  Per core the draws come in a fixed order: burst entry
        (only when no burst is running), injection, then memory or
        coherence and the destination draws.
        """
        self._advance_phase()
        phase = self._current_phase()
        memory_fraction = phase.memory_fraction
        profile = self._profile
        rate = profile.base_injection_rate * phase.rate_scale * self._rate_scale
        plain_rate = min(1.0, rate)
        burst_rate = min(1.0, rate * profile.burst_scale)
        burst_probability = profile.burst_probability
        burst_duration = profile.burst_duration_cycles
        burst_remaining = self._burst_remaining
        has_stacks = bool(self._stack_ids)
        random = self._rng.random
        for index, core in enumerate(self._cores):
            remaining = burst_remaining[index]
            if remaining > 0:
                burst_remaining[index] = remaining - 1
                probability = burst_rate
            elif burst_probability > 0 and (
                burst_probability >= 1.0 or random() < burst_probability
            ):
                burst_remaining[index] = burst_duration
                probability = burst_rate
            else:
                probability = plain_rate
            if probability <= 0 or (probability < 1.0 and random() >= probability):
                continue
            if has_stacks and memory_fraction > 0 and (
                memory_fraction >= 1.0 or random() < memory_fraction
            ):
                vault = self._pick_memory_vault(core)
                is_read = bernoulli(self._rng, profile.read_fraction)
                length = (
                    profile.request_length_flits
                    if is_read
                    else profile.data_length_flits
                )
                yield TrafficRequest(
                    src_endpoint=core,
                    dst_endpoint=vault,
                    length_flits=length,
                    is_memory_access=True,
                    traffic_class="memory_read" if is_read else "memory_write",
                )
            else:
                peer = self._pick_coherence_peer(core)
                long_message = bernoulli(self._rng, 0.3)
                yield TrafficRequest(
                    src_endpoint=core,
                    dst_endpoint=peer,
                    length_flits=profile.data_length_flits
                    if long_message
                    else profile.request_length_flits,
                    traffic_class="coherence",
                )

    def on_packet_delivered(self, packet, cycle: int) -> Iterable[TrafficRequest]:
        """Memory reads produce cache-line replies from the vault."""
        if not self._memory_replies:
            return ()
        if packet.traffic_class != "memory_read" or packet.is_reply:
            return ()
        return (
            TrafficRequest(
                src_endpoint=packet.dst_endpoint,
                dst_endpoint=packet.src_endpoint,
                length_flits=self._profile.data_length_flits,
                is_memory_access=True,
                is_reply=True,
                traffic_class="memory_reply",
            ),
        )
