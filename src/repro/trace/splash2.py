"""Statistical SPLASH-2 workload models (Table 3 of the Corona paper).

The paper replays L2-miss traces of eleven SPLASH-2 applications collected
from 1024-thread full-system simulation (COTSon) with scaled datasets.  The
original traces are not available, and collecting them is outside the scope of
a pure Python reproduction, so each application is modelled as a statistical
miss process whose parameters are calibrated to the paper's own evidence:

* the per-benchmark *network request counts* of Table 3;
* the *achieved-bandwidth classes* of Figure 9 -- Barnes, Radiosity, Volrend
  and Water-Sp demand less than ECM provides, FMM needs slightly more,
  Cholesky/FFT/Ocean/Radix demand 2-5 TB/s, and LU/Raytrace are bursty and
  latency-bound rather than bandwidth-bound;
* the qualitative descriptions in Section 5 (for example "many threads attempt
  to access the same remotely stored matrix block at the same time, following
  a barrier" for LU).

Each profile specifies the mean inter-miss gap per thread (which sets demand
bandwidth), the read/write mix, the fraction of misses that hit the issuing
cluster's own memory controller (locality), the per-thread memory-level
parallelism window, and a burst model (period, length, intensity and
concentration) that reproduces the barrier-driven traffic spikes of LU and
Raytrace.  The miss process is what the paper's network study consumes, so a
calibrated process exercises the same code paths with the same first-order
load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.coherence.sharing import (
    SharingProfile,
    home_for_line,
    resolve_sharing,
    shared_line_address,
)
from repro.trace.arrival import ArrivalSpec, arrival_streams
from repro.trace.gaps import draw_gap
from repro.trace.packed import PackedTrace, PackedTraceBuilder

if TYPE_CHECKING:  # the config package imports the replay, which imports us
    from repro.core.config import CoronaConfig


@dataclass(frozen=True)
class Splash2Profile:
    """Calibrated statistical parameters of one SPLASH-2 application.

    Parameters
    ----------
    name:
        Benchmark name as plotted in the paper.
    dataset:
        The scaled dataset used by the paper (Table 3), for reporting.
    default_dataset:
        The suite's default dataset (Table 3), for reporting.
    paper_requests:
        Network request (L2 miss) count reported in Table 3.
    mean_gap_cycles:
        Mean compute cycles between consecutive misses of one thread; sets the
        workload's demand bandwidth.
    write_fraction:
        Fraction of misses that are writes (stores / writebacks).
    local_fraction:
        Fraction of misses homed at the issuing cluster's own memory
        controller (data placement locality).
    window:
        Per-thread outstanding-miss window (memory-level parallelism).
    burst_period:
        Misses between barrier-style bursts (0 disables bursts).
    burst_length:
        Misses per burst.
    burst_gap_cycles:
        Mean gap during a burst (small => intense spike).
    burst_concentration:
        Fraction of burst misses that target the burst's single hot cluster.
    """

    name: str
    dataset: str
    default_dataset: str
    paper_requests: int
    mean_gap_cycles: float
    write_fraction: float = 0.3
    local_fraction: float = 0.2
    window: int = 4
    burst_period: int = 0
    burst_length: int = 0
    burst_gap_cycles: float = 4.0
    burst_concentration: float = 0.9

    def __post_init__(self) -> None:
        if self.mean_gap_cycles <= 0:
            raise ValueError(
                f"{self.name}: mean gap must be positive, got {self.mean_gap_cycles}"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError(f"{self.name}: bad write fraction")
        if not 0.0 <= self.local_fraction <= 1.0:
            raise ValueError(f"{self.name}: bad local fraction")
        if self.window < 1:
            raise ValueError(f"{self.name}: window must be >= 1")

    def demand_bandwidth_tbps(self, config: "CoronaConfig") -> float:
        """Offered main-memory bandwidth if no resource ever stalls a thread:
        one L2 line per mean gap from each of ``config``'s threads."""
        gap_seconds = self.mean_gap_cycles / config.clock_hz
        per_thread = config.cluster.l2_line_bytes / gap_seconds
        return per_thread * config.num_threads / 1e12


# ---------------------------------------------------------------------------
# Calibrated profiles.  Gap calibration: with 1024 threads at 5 GHz and 64 B
# lines, demand bandwidth ~= 327.68 / gap_cycles TB/s.
# ---------------------------------------------------------------------------
SPLASH2_PROFILES: Dict[str, Splash2Profile] = {
    profile.name: profile
    for profile in [
        # Low-bandwidth group: fits comfortably in ECM's 0.96 TB/s.
        Splash2Profile(
            name="Barnes",
            dataset="64 K particles",
            default_dataset="16 K particles",
            paper_requests=7_200_000,
            mean_gap_cycles=1100.0,
            write_fraction=0.31,
            local_fraction=0.35,
            window=2,
        ),
        Splash2Profile(
            name="Radiosity",
            dataset="roomlarge",
            default_dataset="room",
            paper_requests=4_200_000,
            mean_gap_cycles=1300.0,
            write_fraction=0.27,
            local_fraction=0.30,
            window=2,
        ),
        Splash2Profile(
            name="Volrend",
            dataset="head",
            default_dataset="head",
            paper_requests=3_600_000,
            mean_gap_cycles=1500.0,
            write_fraction=0.22,
            local_fraction=0.40,
            window=2,
        ),
        Splash2Profile(
            name="Water-Sp",
            dataset="32 K molecules",
            default_dataset="512 molecules",
            paper_requests=3_200_000,
            mean_gap_cycles=1600.0,
            write_fraction=0.30,
            local_fraction=0.45,
            window=2,
        ),
        # FMM needs somewhat more bandwidth than ECM provides.
        Splash2Profile(
            name="FMM",
            dataset="1 M particles",
            default_dataset="16 K particles",
            paper_requests=1_800_000,
            mean_gap_cycles=200.0,
            write_fraction=0.28,
            local_fraction=0.30,
            window=4,
        ),
        # High-bandwidth group: 2-5 TB/s demand, crossbar + OCM shine.
        Splash2Profile(
            name="Cholesky",
            dataset="tk29.O",
            default_dataset="tk15.O",
            paper_requests=600_000,
            mean_gap_cycles=110.0,
            write_fraction=0.34,
            local_fraction=0.15,
            window=6,
        ),
        Splash2Profile(
            name="FFT",
            dataset="16 M points",
            default_dataset="64 K points",
            paper_requests=176_000_000,
            mean_gap_cycles=52.0,
            write_fraction=0.40,
            local_fraction=0.10,
            window=8,
        ),
        Splash2Profile(
            name="Ocean",
            dataset="2050x2050 grid",
            default_dataset="258x258 grid",
            paper_requests=240_000_000,
            mean_gap_cycles=62.0,
            write_fraction=0.38,
            local_fraction=0.25,
            window=6,
        ),
        Splash2Profile(
            name="Radix",
            dataset="64 M integers",
            default_dataset="1 M integers",
            paper_requests=189_000_000,
            mean_gap_cycles=50.0,
            write_fraction=0.45,
            local_fraction=0.10,
            window=8,
        ),
        # Bursty, latency-sensitive group: moderate average bandwidth but
        # barrier-synchronized spikes at a single home cluster.
        Splash2Profile(
            name="LU",
            dataset="2048x2048 matrix",
            default_dataset="512x512 matrix",
            paper_requests=34_000_000,
            mean_gap_cycles=300.0,
            write_fraction=0.35,
            local_fraction=0.10,
            window=4,
            burst_period=64,
            burst_length=10,
            burst_gap_cycles=20.0,
            burst_concentration=0.7,
        ),
        Splash2Profile(
            name="Raytrace",
            dataset="balls4",
            default_dataset="car",
            paper_requests=700_000,
            mean_gap_cycles=340.0,
            write_fraction=0.20,
            local_fraction=0.15,
            window=3,
            burst_period=48,
            burst_length=8,
            burst_gap_cycles=20.0,
            burst_concentration=0.7,
        ),
    ]
}

#: Calibrated per-benchmark sharing profiles for coherence-enabled replays.
#: The SPLASH-2 characterization literature (and the suite's own
#: documentation) describes each application's sharing style; the profiles
#: translate those descriptions into the :class:`SharingProfile` axes:
#: *fraction* (how much of the miss stream touches truly shared data),
#: *zipf_s* (how concentrated the sharing is -- task queues and pivot blocks
#: are hot, boundary exchanges are diffuse) and *write_fraction* (read-mostly
#: scene data vs migratory accumulators).  They are **opt-in**: a stock
#: :class:`Splash2Workload` carries no profile, so every existing trace,
#: result and benchmark stays bit-identical.  Request them per workload with
#: ``sharing="default"`` (or any explicit profile) -- scenario files say
#: ``{"name": "Barnes", "sharing": "default"}``.
SPLASH2_SHARING_PROFILES: Dict[str, SharingProfile] = {
    # Octree cells migrate between owners as bodies move.
    "Barnes": SharingProfile(fraction=0.25, zipf_s=0.9, write_fraction=0.20),
    # Supernodal panels are fetched by several consumers before updates.
    "Cholesky": SharingProfile(fraction=0.20, zipf_s=0.7, write_fraction=0.30),
    # The transpose is all-to-all communication, but little data is touched
    # by many clusters repeatedly: small fraction, flat popularity.
    "FFT": SharingProfile(fraction=0.05, zipf_s=0.3, write_fraction=0.40),
    # Interaction lists are read by neighbours, accumulated by owners.
    "FMM": SharingProfile(fraction=0.20, zipf_s=0.8, write_fraction=0.15),
    # Every thread chases the current pivot block after a barrier: few,
    # very hot lines.
    "LU": SharingProfile(
        fraction=0.30, num_lines=256, zipf_s=1.2, write_fraction=0.25
    ),
    # Nearest-neighbour boundary rows: diffuse, write-carrying exchange.
    "Ocean": SharingProfile(fraction=0.10, zipf_s=0.4, write_fraction=0.35),
    # Distributed task queue plus shared patch radiosities: hot and mixed.
    "Radiosity": SharingProfile(fraction=0.35, zipf_s=1.1, write_fraction=0.30),
    # Global histogram / rank arrays, write-heavy during permutation.
    "Radix": SharingProfile(fraction=0.15, zipf_s=0.9, write_fraction=0.50),
    # Read-mostly scene geometry plus a hot task queue.
    "Raytrace": SharingProfile(fraction=0.30, zipf_s=1.0, write_fraction=0.05),
    # Read-mostly voxel/opacity maps.
    "Volrend": SharingProfile(fraction=0.25, zipf_s=0.8, write_fraction=0.05),
    # Small per-molecule force arrays, lightly shared.
    "Water-Sp": SharingProfile(fraction=0.10, zipf_s=0.6, write_fraction=0.25),
}

#: Plot order used by the paper's figures.
SPLASH2_ORDER: List[str] = [
    "Barnes",
    "Cholesky",
    "FFT",
    "FMM",
    "LU",
    "Ocean",
    "Radiosity",
    "Radix",
    "Raytrace",
    "Volrend",
    "Water-Sp",
]


@dataclass
class Splash2Workload:
    """A SPLASH-2 workload generator built around a calibrated profile.

    ``sharing`` is **off by default** so results stay bit-identical to the
    sharing-free models: pass ``"default"`` to adopt the benchmark's
    calibrated :data:`SPLASH2_SHARING_PROFILES` entry, or any explicit
    :class:`~repro.coherence.sharing.SharingProfile`.  ``label`` renames the
    workload in traces and reports (scenario sweeps replaying one benchmark
    under several profiles need distinct names).
    """

    profile: Splash2Profile
    num_clusters: int = 64
    threads_per_cluster: int = 16
    num_requests: Optional[int] = None
    sharing: Optional[Union[str, SharingProfile]] = None
    arrival: Optional[Union[dict, ArrivalSpec]] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_requests is None:
            self.num_requests = self.profile.paper_requests
        if isinstance(self.arrival, dict):
            self.arrival = ArrivalSpec.from_dict(self.arrival)

        def benchmark_default() -> SharingProfile:
            profile = SPLASH2_SHARING_PROFILES.get(self.profile.name)
            if profile is None:
                from repro.coherence.sharing import default_sharing_profile

                profile = default_sharing_profile()
            return profile

        self.sharing = resolve_sharing(self.sharing, benchmark_default)

    @property
    def name(self) -> str:
        return self.label or self.profile.name

    @property
    def window(self) -> int:
        return self.profile.window

    @property
    def is_synthetic(self) -> bool:
        return False

    def _destination(
        self,
        cluster: int,
        rng: random.Random,
        in_burst: bool,
        burst_home: int,
    ) -> int:
        profile = self.profile
        if in_burst and rng.random() < profile.burst_concentration:
            return burst_home
        if rng.random() < profile.local_fraction:
            return cluster
        return rng.randrange(self.num_clusters)

    def _description(self) -> str:
        profile = self.profile
        return (
            f"SPLASH-2 {profile.name} ({profile.dataset}); statistical model "
            f"of the paper's {profile.paper_requests:,}-request trace"
        )

    def _emit_records(
        self, builder: PackedTraceBuilder, seed: int, total: int
    ) -> None:
        """Drive the generation loop, appending each miss to ``builder``.

        The rng draw sequence depends only on the profile, the sharing
        profile and ``seed``.  With no sharing profile it is exactly the
        historical one, keeping sharing-free traces bit-identical.
        """
        append = builder.append
        profile = self.profile
        if total < 1:
            raise ValueError(f"request count must be >= 1, got {total}")
        rng = random.Random(seed)
        total_threads = self.num_clusters * self.threads_per_cluster
        base, remainder = divmod(total, total_threads)
        # Stagger thread starts: the trace window opens mid-execution, so the
        # threads should not all fire their first miss at t = 0.
        stagger_cycles = 8.0 * profile.mean_gap_cycles
        sharing = self.sharing if self.sharing and self.sharing.enabled else None
        shared_cumulative = sharing.cumulative_weights() if sharing else None
        # Open-loop arrivals replace the benchmark's think/burst gap model
        # (and the stagger) with the rate-driven schedule; destination and
        # write draws keep their historical rng sequence.
        arrivals = arrival_streams(self.arrival, total_threads, seed)
        line_counter = 0
        for thread_id in range(total_threads):
            cluster = thread_id // self.threads_per_cluster
            count = base + (1 if thread_id < remainder else 0)
            thread_arrivals = next(arrivals) if arrivals is not None else None
            for miss_index in range(count):
                in_burst = False
                burst_home = 0
                if profile.burst_period > 0 and profile.burst_length > 0:
                    phase, offset = divmod(miss_index, profile.burst_period)
                    in_burst = offset < profile.burst_length
                    # All threads in the same phase chase the same hot block,
                    # which is what the post-barrier access pattern of LU and
                    # Raytrace does to a mesh.
                    burst_home = (phase * 2654435761) % self.num_clusters
                if thread_arrivals is not None:
                    gap = thread_arrivals.next_gap()
                else:
                    if in_burst:
                        mean_gap = profile.burst_gap_cycles
                    else:
                        mean_gap = profile.mean_gap_cycles
                    gap = draw_gap(rng, mean_gap)
                    if miss_index == 0 and stagger_cycles > 0:
                        gap += rng.uniform(0.0, stagger_cycles)
                if sharing is not None and rng.random() < sharing.fraction:
                    # Shared miss: target the benchmark's shared-line pool
                    # (dedicated address region, own write mix) exactly like
                    # the synthetic generators do.
                    line = sharing.draw_line(rng, shared_cumulative)
                    home = home_for_line(line, self.num_clusters)
                    address = shared_line_address(line, self.num_clusters)
                    is_write = rng.random() < sharing.write_fraction
                    append(thread_id, home, is_write, True, address, gap)
                    continue
                is_write = rng.random() < profile.write_fraction
                home = self._destination(cluster, rng, in_burst, burst_home)
                address = (home << 26) | ((line_counter & 0xFFFFF) << 6)
                line_counter += 1
                append(thread_id, home, is_write, False, address, gap)

    def generate_packed(
        self, seed: int = 1, num_requests: Optional[int] = None
    ) -> PackedTrace:
        """Generate the miss trace in packed columnar form.

        ``num_requests`` scales the paper's Table 3 request count down (or up)
        while keeping the per-thread statistics unchanged.
        """
        total = num_requests if num_requests is not None else self.num_requests
        arrival = self.arrival if self.arrival and self.arrival.enabled else None
        builder = PackedTraceBuilder(
            name=self.name,
            num_clusters=self.num_clusters,
            threads_per_cluster=self.threads_per_cluster,
            description=self._description(),
            arrival_process=arrival.process if arrival else "closed",
            offered_rps=arrival.offered_rps() if arrival else 0.0,
        )
        self._emit_records(builder, seed, total)
        return builder.build()


def splash2_workload(name: str, **overrides) -> Splash2Workload:
    """Build the workload for one SPLASH-2 benchmark by name."""
    if name not in SPLASH2_PROFILES:
        raise KeyError(
            f"unknown SPLASH-2 benchmark {name!r}; "
            f"known: {sorted(SPLASH2_PROFILES)}"
        )
    return Splash2Workload(profile=SPLASH2_PROFILES[name], **overrides)


def splash2_workloads(**overrides) -> List[Splash2Workload]:
    """All eleven SPLASH-2 workloads in the paper's plot order."""
    return [splash2_workload(name, **overrides) for name in SPLASH2_ORDER]
