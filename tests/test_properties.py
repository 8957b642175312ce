"""Property-based tests (hypothesis) on the core data structures and invariants."""

import heapq
import random
import time
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_configuration, build_workload
from repro.cache.cache import SetAssociativeCache
from repro.cache.coherence import CoherenceController
from repro.core.system import SystemSimulator
from repro.network.crossbar import OpticalCrossbar
from repro.network.mesh import high_performance_mesh
from repro.network.message import Message, MessageType
from repro.network.topology import MeshCoordinates
from repro.photonics.inventory import corona_inventory
from repro.sim.engine import Simulator
from repro.sim.resources import BoundedQueue, SerialResource, TokenPool
from repro.sim.stats import RunningStats, geometric_mean
from repro.trace.synthetic import tornado_destination, transpose_destination


class TestResourceProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e-3),
                st.floats(min_value=0.0, max_value=1e-6),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_serial_resource_never_overlaps_more_than_servers(self, requests):
        """Total busy time never exceeds servers x span, and every reservation
        ends after it starts."""
        resource = SerialResource("r", servers=2)
        ends = []
        for now, duration in requests:
            end = resource.reserve(now, duration)
            assert end >= now + duration - 1e-18
            ends.append(end)
        span = max(ends) if ends else 0.0
        assert resource.busy_time <= 2 * span + 1e-12

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e-3), min_size=1, max_size=50
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_serial_resource_grants_are_monotone_for_sorted_requests(self, times):
        """With FIFO arrivals at a single server, completion times are monotone."""
        resource = SerialResource("link")
        previous_end = 0.0
        for now in sorted(times):
            end = resource.reserve(now, 1e-6)
            assert end >= previous_end
            previous_end = end

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_token_pool_never_exceeds_capacity(self, tokens, acquisitions):
        pool = TokenPool("pool", tokens=tokens)
        rng = random.Random(42)
        now = 0.0
        for _ in range(acquisitions):
            now += rng.random() * 1e-8
            grant = pool.acquire(now)
            pool.release_at(grant + 1e-7 + rng.random() * 1e-7)
            assert grant >= now
            assert pool.in_use(grant) <= tokens


#: Small whole-number times: duplicates, and departures equal to ``now``,
#: are common.
_TIMES = st.integers(min_value=0, max_value=24).map(float)


def _scan_admission(departures: List[float], capacity: int, now: float) -> float:
    """The list-and-scan rule :class:`AdmissionHeaps` replaced: expire, then
    wait for the (booked - capacity + 1)-th earliest departure."""
    departures[:] = [departure for departure in departures if departure > now]
    overflow = len(departures) - capacity
    if overflow < 0:
        return now
    return heapq.nsmallest(overflow + 1, departures)[-1]


class TestAdmissionHeapsProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(
            st.tuples(st.sampled_from(("admission", "push", "count")), _TIMES),
            max_size=120,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_list_and_scan_rule(self, capacity, operations):
        """Any interleaving of admissions (at non-monotone ``now``), pushes
        and counts gives the old rule's admission times, sizes and peak."""
        queue = BoundedQueue("q", capacity=capacity)
        heaps = queue.heaps
        oracle: List[float] = []
        peak = 0
        for operation, at in operations:
            if operation == "admission":
                assert queue.admission_time(at) == _scan_admission(oracle, capacity, at)
            elif operation == "push":
                heaps.push(at)
                oracle.append(at)
                peak = max(peak, len(oracle))
            else:
                assert queue.occupancy(at) == sum(1 for d in oracle if d > at)
            assert len(heaps) == len(oracle)
            assert queue.max_occupancy_seen == peak
            assert len(heaps.latest) <= capacity
            if heaps.earlier:
                assert len(heaps.latest) == capacity
                assert max(heaps.earlier) <= heaps.latest[0]

    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3).map(float),
                st.integers(min_value=0, max_value=12).map(float),
            ),
            min_size=1,
            max_size=80,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_admission_is_a_fifo_waiting_room(self, capacity, arrivals):
        """With nondecreasing arrivals the rule is an explicit FIFO waiting
        room in front of ``capacity`` slots: never more than ``capacity``
        entries are resident, and the queue's occupancy counts the resident
        plus the waiting ones."""
        queue = BoundedQueue("q", capacity=capacity)
        slot_free = [0.0] * capacity
        booked = []  # (admission, departure) in the explicit model
        now = last_admitted = 0.0
        for gap, hold in arrivals:
            now += gap
            slot = min(range(capacity), key=slot_free.__getitem__)
            admitted = max(now, last_admitted, slot_free[slot])
            departure = admitted + hold
            slot_free[slot] = departure
            last_admitted = admitted
            booked.append((admitted, departure))
            assert queue.admit(now, departure) == admitted
            resident = sum(1 for start, end in booked if start <= now < end)
            waiting = sum(1 for start, _ in booked if start > now)
            assert resident <= capacity
            assert queue.occupancy(now) == resident + waiting

    def test_hotspot_replay_time_grows_linearly(self):
        """Hot Spot on LMesh/ECM at 8k requests replays in under 8x the
        process time of 2k: linear is 4x, while a scan over every booked
        departure per admission made it ~16x."""
        workload = build_workload("Hot Spot")
        configuration = build_configuration("LMesh/ECM")

        def best_process_time(num_requests: int, repeats: int) -> float:
            trace = workload.generate_packed(seed=1, num_requests=num_requests)
            times = []
            for _ in range(repeats):
                simulator = SystemSimulator(configuration, window_depth=workload.window)
                start = time.process_time()
                simulator.run(trace)
                times.append(time.process_time() - start)
            return min(times)

        assert best_process_time(8_000, 2) < 8 * best_process_time(2_000, 3)


class TestStatisticsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_running_stats_matches_direct_computation(self, values):
        stats = RunningStats()
        stats.extend(values)
        assert stats.count == len(values)
        assert stats.mean == sum(values) / len(values) or abs(
            stats.mean - sum(values) / len(values)
        ) < 1e-6 * max(1.0, abs(sum(values)))
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    @given(
        st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=1, max_size=100),
        st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=1, max_size=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_is_equivalent_to_concatenation(self, left_values, right_values):
        left, right, combined = RunningStats(), RunningStats(), RunningStats()
        left.extend(left_values)
        right.extend(right_values)
        combined.extend(left_values + right_values)
        left.merge(right)
        assert left.count == combined.count
        assert abs(left.mean - combined.mean) < 1e-6 * max(1.0, abs(combined.mean))

    @given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_geometric_mean_bounded_by_min_and_max(self, values):
        mean = geometric_mean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


class TestTopologyProperties:
    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
    @settings(max_examples=200, deadline=None)
    def test_route_length_equals_manhattan_distance(self, src, dst):
        mesh = MeshCoordinates.square(64)
        route = mesh.dimension_order_route(src, dst)
        assert len(route) == mesh.hop_distance(src, dst)
        # The route is connected and ends at the destination.
        if route:
            assert route[0][0] == src
            assert route[-1][1] == dst
            for (a, b), (c, d) in zip(route, route[1:]):
                assert b == c

    @given(st.integers(min_value=0, max_value=63))
    @settings(max_examples=64, deadline=None)
    def test_synthetic_permutations_stay_in_range(self, cluster):
        assert 0 <= tornado_destination(cluster, 64) < 64
        assert 0 <= transpose_destination(cluster, 64) < 64

    @given(st.sampled_from([4, 16, 64, 256]))
    @settings(max_examples=4, deadline=None)
    def test_transpose_is_involution_for_any_square_size(self, num_clusters):
        for cluster in range(num_clusters):
            twice = transpose_destination(
                transpose_destination(cluster, num_clusters), num_clusters
            )
            assert twice == cluster


class TestInventoryProperties:
    # Generate the grid radix and square it rather than filtering integers
    # down to perfect squares: the filter rejects ~95% of draws and can trip
    # hypothesis's filter_too_much health check on an unlucky seed.
    @given(st.integers(min_value=2, max_value=16).map(lambda radix: radix * radix))
    @settings(max_examples=10, deadline=None)
    def test_crossbar_rings_scale_quadratically(self, clusters):
        inventory = corona_inventory(clusters=clusters)
        assert inventory.by_name()["Crossbar"].ring_resonators == clusters * clusters * 256

    @given(
        st.integers(min_value=2, max_value=128),
        st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=40, deadline=None)
    def test_inventory_counts_are_never_negative(self, clusters, wavelengths):
        inventory = corona_inventory(
            clusters=clusters, wavelengths_per_waveguide=wavelengths
        )
        assert inventory.total_waveguides > 0
        assert inventory.total_ring_resonators > 0


class TestInterconnectProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=63),
                st.floats(min_value=0.0, max_value=1e-6),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_crossbar_transfers_always_arrive_after_request(self, transfers):
        crossbar = OpticalCrossbar()
        for src, dst, now in sorted(transfers, key=lambda item: item[2]):
            message = Message(src=src, dst=dst, message_type=MessageType.READ_RESPONSE)
            result = crossbar.transfer(message, now)
            assert result.arrival_time >= now
            assert result.queueing_delay >= 0
            assert result.network_latency >= 0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=63),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_mesh_energy_matches_hop_count(self, pairs):
        mesh = high_performance_mesh()
        total_hops = 0
        for src, dst in pairs:
            message = Message(src=src, dst=dst, message_type=MessageType.READ_REQUEST)
            result = mesh.transfer(message, 0.0)
            total_hops += result.hops
        assert mesh.total_dynamic_energy_j == sum(
            [196e-12 * total_hops]
        ) or abs(mesh.total_dynamic_energy_j - 196e-12 * total_hops) < 1e-18


class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 20),
                st.booleans(),
            ),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_cache_occupancy_never_exceeds_capacity(self, accesses):
        cache = SetAssociativeCache("c", capacity_bytes=4096, associativity=4)
        for address, is_write in accesses:
            cache.access(address * 64, is_write)
        assert cache.resident_lines() <= cache.num_sets * cache.associativity
        assert cache.stats.accesses == len(accesses)
        assert cache.stats.misses <= cache.stats.accesses

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=64),
                st.integers(min_value=0, max_value=15),
                st.booleans(),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_directory_always_has_at_most_one_owner(self, operations):
        directory = CoherenceController(home_cluster=0)
        for line, cluster, is_write in operations:
            address = line * 64
            if is_write:
                directory.handle_write(address, cluster)
            else:
                directory.handle_read(address, cluster)
            entry = directory._entry(address)
            # Invariant: a modified/exclusive owner never coexists with itself
            # in the sharer list, and sharer sets never contain the owner.
            if entry.owner is not None:
                assert entry.owner not in entry.sharers


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e-3), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_events_execute_in_nondecreasing_time_order(self, delays):
        simulator = Simulator()
        executed = []
        for delay in delays:
            simulator.schedule(delay, lambda t=delay: executed.append(simulator.now))
        simulator.run()
        assert executed == sorted(executed)
        assert len(executed) == len(delays)
