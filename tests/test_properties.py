"""Property-based tests (hypothesis) on the core data structures and invariants."""

import heapq
import random
import time
from bisect import bisect_left, bisect_right
from typing import List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import build_configuration, build_workload
from repro.cache.cache import SetAssociativeCache
from repro.cache.coherence import CoherenceController
from repro.core.system import SystemSimulator
from repro.faults.inject import FaultInjector
from repro.faults.spec import FaultSpec
from repro.memory.dram import DramTimings, OcmModule
from repro.network.crossbar import OpticalCrossbar
from repro.network.mesh import ElectricalMesh, high_performance_mesh
from repro.network.message import Message, MessageType
from repro.network.topology import MeshCoordinates, TransferResult, xy_route_table
from repro.core.config import CORONA_DEFAULT
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
        """The single server's total busy time never exceeds the span, and
        every reservation ends after it starts."""
        resource = SerialResource("r")
        ends = []
        for now, duration in requests:
            end = resource.reserve(now, duration)
            assert end >= now + duration - 1e-18
            ends.append(end)
        span = max(ends) if ends else 0.0
        assert resource.busy_time <= span + 1e-12

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
                assert heaps.admission(at) == _scan_admission(oracle, capacity, at)
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


#: The reference DRAM bank model: one single-server interval timeline per
#: bank, held by a per-bank object in a per-die list.  ``access`` is the
#: reservation the object tree ran and ``_insert`` its interior insert,
#: copied verbatim; :class:`OcmModule` keeps all banks in one flat table and
#: must return the same data-ready times to the last bit.
_ORACLE_EPSILON = 1e-15
_ORACLE_PRUNE_HORIZON = 5e-6


class _OracleResource:
    def __init__(self) -> None:
        self._starts: List[List[float]] = [[]]
        self._ends: List[List[float]] = [[]]
        self._high_water_request = 0.0
        self.busy_time = 0.0

    def _insert(self, server: int, start: float, end: float) -> None:
        starts = self._starts[server]
        ends = self._ends[server]
        if not starts:
            starts.append(start)
            ends.append(end)
            return
        if start > starts[-1]:
            if ends[-1] >= start - _ORACLE_EPSILON:
                if end > ends[-1]:
                    ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
            return
        index = bisect_left(starts, start)
        if index > 0 and ends[index - 1] >= start - _ORACLE_EPSILON:
            ends[index - 1] = max(ends[index - 1], end)
            merged_index = index - 1
        else:
            starts.insert(index, start)
            ends.insert(index, end)
            merged_index = index
        next_index = merged_index + 1
        while next_index < len(starts) and starts[next_index] <= ends[merged_index] + _ORACLE_EPSILON:
            ends[merged_index] = max(ends[merged_index], ends[next_index])
            del starts[next_index]
            del ends[next_index]


class _OracleBank:
    def __init__(self, timings: DramTimings) -> None:
        self._resource = _OracleResource()
        self._cycle_time_s = timings.cycle_time_s
        self._access_latency_s = timings.access_latency_s
        self.interior_inserts = 0
        self.prunes = 0

    def access(self, now: float) -> float:
        cycle = self._cycle_time_s
        resource = self._resource
        if now > resource._high_water_request:
            resource._high_water_request = now
        prune_before = resource._high_water_request - _ORACLE_PRUNE_HORIZON
        starts = resource._starts[0]
        ends = resource._ends[0]
        if prune_before > 0 and ends and ends[0] <= prune_before:
            cut = bisect_right(ends, prune_before)
            del ends[:cut]
            del starts[:cut]
            self.prunes += 1
        start = now
        n = len(starts)
        index = bisect_right(ends, start)
        while index < n:
            if start + cycle <= starts[index] + _ORACLE_EPSILON:
                break
            interval_end = ends[index]
            if interval_end > start:
                start = interval_end
            index += 1
        end = start + cycle
        if index >= n:
            if n and ends[-1] >= start - _ORACLE_EPSILON:
                if end > ends[-1]:
                    ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
        else:
            resource._insert(0, start, end)
            self.interior_inserts += 1
        resource.busy_time += cycle
        return start + self._access_latency_s


class _OracleModule:
    """Die ``(line // banks_per_die) % dies``, bank ``line % banks_per_die``."""

    def __init__(self, num_dram_dies: int, banks_per_die: int, timings: DramTimings) -> None:
        self.banks_per_die = banks_per_die
        self.dies = [
            [_OracleBank(timings) for _ in range(banks_per_die)]
            for _ in range(num_dram_dies)
        ]

    def access(self, address: int, now: float) -> float:
        line = address >> 6
        die = self.dies[(line // self.banks_per_die) % len(self.dies)]
        return die[line % len(die)].access(now)


#: One DRAM access: ``(line, offset byte, epoch, slot)``.  The request time
#: is ``epoch * 6 us + slot * 5 ns``: epochs jump past the 5 us prune
#: horizon, slots revisit earlier times (out-of-order and equal ``now``),
#: and lines 0-3 are drawn often so banks repeat.
_DRAM_ACCESS = st.tuples(
    st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=95)),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=40),
)

#: Bank 0 only: interior inserts (one into a gap exactly one cycle long,
#: at 80 ns), then a prune, then an interior insert behind the horizon.
_INTERIOR_THEN_PRUNE = [
    (0, 0, 0, 20), (0, 0, 0, 0), (0, 0, 0, 2), (0, 0, 0, 10), (0, 0, 0, 16),
    (0, 0, 2, 0), (0, 0, 2, 1), (0, 0, 0, 30),
]


class TestOcmModuleBankTableProperties:
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=8),
        st.sampled_from((20e-9, 7e-9, 35e-9)),
        st.lists(_DRAM_ACCESS, max_size=150),
    )
    @example(4, 8, 20e-9, _INTERIOR_THEN_PRUNE)
    @settings(max_examples=300, deadline=None)
    def test_matches_per_bank_object_model(
        self, num_dram_dies, banks_per_die, cycle_time_s, accesses
    ):
        """Same data-ready time for every access."""
        timings = DramTimings(access_latency_s=20e-9, cycle_time_s=cycle_time_s)
        module = OcmModule(
            module_id=0,
            num_dram_dies=num_dram_dies,
            banks_per_die=banks_per_die,
            timings=timings,
        )
        oracle = _OracleModule(num_dram_dies, banks_per_die, timings)
        for line, offset, epoch, slot in accesses:
            address = (line << 6) | offset
            now = epoch * 6e-6 + slot * 5e-9
            assert module.access(address, now) == oracle.access(address, now)

    def test_example_runs_the_interior_insert_and_prune_branches(self):
        """The pinned example above reaches both rare branches of the
        reservation, so the equality check covers them on every run."""
        oracle = _OracleModule(4, 8, DramTimings(access_latency_s=20e-9))
        for line, offset, epoch, slot in _INTERIOR_THEN_PRUNE:
            oracle.access((line << 6) | offset, epoch * 6e-6 + slot * 5e-9)
        bank = oracle.dies[0][0]
        assert bank.interior_inserts >= 2
        assert bank.prunes >= 1


class _ReferenceMesh:
    """The electrical mesh's transfer as it was before the route table: the
    XY route is walked inline on every call and each link is resolved
    through a dict keyed by ``src * num_clusters + dst``.  ``transfer`` is
    that method copied verbatim, plus two branch counters;
    :class:`ElectricalMesh` must return the same results and leave every
    link in the same state, to the last bit.  Mesh parameters (bandwidth,
    hop latency, energy) are read off the mesh under test; only the
    routing and reservation logic is the reference's own."""

    def __init__(self, mesh: ElectricalMesh) -> None:
        self.num_clusters = mesh.num_clusters
        self.coordinates = mesh.coordinates
        self.link_bandwidth_bytes_per_s = mesh.link_bandwidth_bytes_per_s
        self.hop_latency_s = mesh.hop_latency_s
        self.energy_per_hop_j = mesh.energy_per_hop_j
        self._link_resources = {
            src * self.num_clusters + dst: _OracleResource()
            for src, dst in self.coordinates.all_links()
        }
        self._fault_link_slow = None
        self.messages_sent = 0
        self.bytes_sent = 0.0
        self.total_dynamic_energy_j = 0.0
        self.interior_inserts = 0
        self.prunes = 0

    def record_transfer(self, message: Message, result: TransferResult) -> None:
        self.messages_sent += 1
        self.bytes_sent += message.size_bytes
        self.total_dynamic_energy_j += result.dynamic_energy_j

    def transfer(self, message: Message, now: float) -> TransferResult:
        if message.src >= self.num_clusters or message.dst >= self.num_clusters:
            raise ValueError(
                f"message endpoints {message.src}->{message.dst} outside mesh"
            )
        if message.is_local:
            result = TransferResult(now, 0.0, 0.0, 0.0, 0, 0.0)
            self.record_transfer(message, result)
            return result

        serialization = message.size_bytes / self.link_bandwidth_bytes_per_s
        radix = self.coordinates.radix_x
        num_clusters = self.num_clusters
        x, y = message.src % radix, message.src // radix
        dest_x, dest_y = message.dst % radix, message.dst // radix
        resources = self._link_resources
        link_slow = self._fault_link_slow
        hop_latency = self.hop_latency_s
        epsilon = _ORACLE_EPSILON
        horizon = _ORACLE_PRUNE_HORIZON

        head_time = now
        queueing = 0.0
        hops = 0
        hop_serialization = serialization
        node = message.src
        while node != message.dst:
            if x != dest_x:
                x += 1 if dest_x > x else -1
            else:
                y += 1 if dest_y > y else -1
            next_node = y * radix + x
            link_key = node * num_clusters + next_node
            resource = resources[link_key]
            if link_slow is None:
                hop_serialization = serialization
            else:
                hop_serialization = serialization * link_slow.get(link_key, 1.0)

            if head_time > resource._high_water_request:
                resource._high_water_request = head_time
            prune_before = resource._high_water_request - horizon
            starts = resource._starts[0]
            ends = resource._ends[0]
            if prune_before > 0 and ends and ends[0] <= prune_before:
                cut = bisect_right(ends, prune_before)
                del ends[:cut]
                del starts[:cut]
                self.prunes += 1
            start = head_time
            n = len(starts)
            index = bisect_right(ends, start)
            while index < n:
                if start + hop_serialization <= starts[index] + epsilon:
                    break
                interval_end = ends[index]
                if interval_end > start:
                    start = interval_end
                index += 1
            end = start + hop_serialization
            if index >= n:
                if n and ends[-1] >= start - epsilon:
                    if end > ends[-1]:
                        ends[-1] = end
                else:
                    starts.append(start)
                    ends.append(end)
            else:
                self.interior_inserts += 1
                if index > 0 and ends[index - 1] >= start - epsilon:
                    merged = index - 1
                    if end > ends[merged]:
                        ends[merged] = end
                else:
                    starts.insert(index, start)
                    ends.insert(index, end)
                    merged = index
                following = merged + 1
                while (
                    following < len(starts)
                    and starts[following] <= ends[merged] + epsilon
                ):
                    if ends[following] > ends[merged]:
                        ends[merged] = ends[following]
                    del starts[following]
                    del ends[following]
            resource.busy_time += hop_serialization

            queueing += start - head_time
            head_time = start + hop_latency
            node = next_node
            hops += 1
        arrival = head_time + hop_serialization
        energy = hops * self.energy_per_hop_j

        self.messages_sent += 1
        self.bytes_sent += message.size_bytes
        self.total_dynamic_energy_j += energy
        return TransferResult(
            arrival, queueing, serialization, hops * hop_latency, hops, energy
        )


def _mesh_under_test(num_clusters: int) -> ElectricalMesh:
    if num_clusters == 64:
        return high_performance_mesh(CORONA_DEFAULT)
    config = CORONA_DEFAULT.with_overrides({"num_clusters": num_clusters})
    return ElectricalMesh(config, "small", 1.28e12)


def _assert_same_mesh_state(mesh: ElectricalMesh, reference: _ReferenceMesh) -> None:
    for src, dst in mesh.coordinates.all_links():
        real = mesh.links[(src, dst)]
        oracle = reference._link_resources[src * mesh.num_clusters + dst]
        assert real._starts == oracle._starts[0], (src, dst)
        assert real._ends == oracle._ends[0], (src, dst)
        assert real.busy_time == oracle.busy_time, (src, dst)
        assert real._high_water_request == oracle._high_water_request, (src, dst)
    assert mesh.total_dynamic_energy_j == reference.total_dynamic_energy_j
    assert mesh.messages_sent == reference.messages_sent
    assert mesh.bytes_sent == reference.bytes_sent


#: One mesh transfer: ``(src, dst, data, epoch, slot)``.  Endpoints are
#: taken modulo the mesh size and drawn often from 0-3, so routes share
#: links; ``data`` picks a 72-byte response over a 16-byte request.  The
#: request time is ``epoch * 6 us + slot * 0.5 ns``: epochs jump past the
#: 5 us prune horizon, slots go back in time within an epoch.
_MESH_ENDPOINT = st.one_of(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=63)
)
_MESH_TRANSFER = st.tuples(
    _MESH_ENDPOINT,
    _MESH_ENDPOINT,
    st.booleans(),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=40),
)

#: Link 0->1 only: two interior inserts, then a prune, then an interior
#: insert behind the horizon.
_MESH_INTERIOR_THEN_PRUNE = [
    (0, 1, False, 0, 20), (0, 1, False, 0, 0), (0, 1, False, 0, 2),
    (0, 1, True, 2, 0), (0, 1, False, 0, 30),
]


def _replay_mesh_transfers(mesh, reference, transfers) -> None:
    nodes = mesh.num_clusters
    for src, dst, data, epoch, slot in transfers:
        kind = MessageType.READ_RESPONSE if data else MessageType.READ_REQUEST
        message = Message(src=src % nodes, dst=dst % nodes, message_type=kind)
        now = epoch * 6e-6 + slot * 0.5e-9
        assert mesh.transfer(message, now) == reference.transfer(message, now)
    _assert_same_mesh_state(mesh, reference)


class TestMeshTransferProperties:
    @given(
        st.sampled_from((16, 64)),
        st.booleans(),
        st.lists(_MESH_TRANSFER, max_size=150),
    )
    @example(64, False, _MESH_INTERIOR_THEN_PRUNE)
    @example(16, True, _MESH_INTERIOR_THEN_PRUNE + _MESH_INTERIOR_THEN_PRUNE)
    @settings(max_examples=200, deadline=None)
    def test_matches_inline_route_walk(self, num_clusters, with_faults, transfers):
        """Same result for every transfer; same intervals, busy time and
        high-water mark on every link; same energy and message counters --
        with and without a table of degraded links."""
        mesh = _mesh_under_test(num_clusters)
        reference = _ReferenceMesh(mesh)
        if with_faults:
            slow = {
                src * num_clusters + dst: 2.5
                for position, (src, dst) in enumerate(mesh.coordinates.all_links())
                if position % 3 == 0
            }
            mesh._fault_link_slow = dict(slow)
            reference._fault_link_slow = dict(slow)
        _replay_mesh_transfers(mesh, reference, transfers)

    @pytest.mark.parametrize("num_clusters", [16, 64])
    def test_route_table_is_dimension_order_routing(self, num_clusters):
        mesh = _mesh_under_test(num_clusters)
        coordinates = mesh.coordinates
        links = coordinates.all_links()
        assert list(mesh.links) == links
        assert mesh._routes is xy_route_table(coordinates.radix_x, coordinates.radix_y)
        for src in range(num_clusters):
            for dst in range(num_clusters):
                route = mesh._routes[src * num_clusters + dst]
                assert [links[index] for index in route] == (
                    coordinates.dimension_order_route(src, dst)
                )

    def test_example_runs_the_interior_insert_and_prune_branches(self):
        """The pinned examples above reach both rare branches of the
        per-hop reservation, so the equality check covers them on every
        run."""
        for num_clusters in (16, 64):
            mesh = _mesh_under_test(num_clusters)
            reference = _ReferenceMesh(mesh)
            _replay_mesh_transfers(mesh, reference, _MESH_INTERIOR_THEN_PRUNE)
            assert reference.interior_inserts >= 3
            assert reference.prunes >= 1


class _ReferenceToken:
    """One channel's token state, as the reference crossbar keeps it."""

    def __init__(self, release_position: int, ring_round_trip_s: float) -> None:
        self.ring_round_trip_s = ring_round_trip_s
        self.release_position = release_position
        self.release_time = 0.0
        self.grants = 0
        self.total_wait_s = 0.0


class _ReferenceCrossbar:
    """The optical crossbar's transfer as it was when it transcribed the
    token arbitration inline: ``transfer`` is that method copied verbatim --
    its token arithmetic, its ``_fault_injector`` token-loss draw and its
    ``_fault_channel_bw`` table -- run on the reference's own per-channel
    token state.  :class:`OpticalCrossbar` must return the same results and
    leave every channel's token in the same state, to the last bit.
    Crossbar parameters are read off the crossbar under test."""

    def __init__(self, crossbar: OpticalCrossbar) -> None:
        self.num_clusters = crossbar.num_clusters
        self.channel_bandwidth_bytes_per_s = crossbar.channel_bandwidth_bytes_per_s
        self.max_propagation_s = crossbar.max_propagation_s
        self.energy_per_bit_j = crossbar.energy_per_bit_j
        self._ring_round_trip_s = crossbar.arbiter.ring_round_trip_s
        self._fault_channel_bw = None
        self._fault_injector = None
        num_clusters = self.num_clusters
        self.messages_sent = 0
        self.bytes_sent = 0.0
        self.total_dynamic_energy_j = 0.0
        self.channel_bytes = {c: 0.0 for c in range(num_clusters)}
        # Tokens start spread around the ring, one per channel.
        self.channels = {
            c: _ReferenceToken(c % num_clusters, self._ring_round_trip_s)
            for c in range(num_clusters)
        }

    def record_transfer(self, message: Message, result: TransferResult) -> None:
        self.messages_sent += 1
        self.bytes_sent += message.size_bytes
        self.total_dynamic_energy_j += result.dynamic_energy_j

    def average_wait_s(self) -> float:
        grants = sum(c.grants for c in self.channels.values())
        if grants == 0:
            return 0.0
        return sum(c.total_wait_s for c in self.channels.values()) / grants

    def transfer(self, message: Message, now: float) -> TransferResult:
        if message.src >= self.num_clusters or message.dst >= self.num_clusters:
            raise ValueError(
                f"message endpoints {message.src}->{message.dst} outside crossbar"
            )
        if message.is_local:
            result = TransferResult(now, 0.0, 0.0, 0.0, 0, 0.0)
            self.record_transfer(message, result)
            return result

        channel = message.dst
        src = message.src
        size = message.size_bytes
        num_clusters = self.num_clusters
        channel_arbiter = self.channels[channel]
        release_time = channel_arbiter.release_time
        round_trip = channel_arbiter.ring_round_trip_s
        if now >= release_time:
            distance = (src - channel_arbiter.release_position) % num_clusters
            if distance == 0:
                distance = num_clusters
            arrival = release_time + round_trip * distance / num_clusters
            while arrival < now and round_trip > 0:
                arrival += round_trip
            grant_time = arrival if arrival > now else now
        else:
            grant_time = release_time + round_trip / num_clusters
        injector = self._fault_injector
        if injector is not None:
            grant_time += injector.token_extra_delay(
                channel, channel_arbiter.grants
            )
        channel_arbiter.grants += 1
        channel_arbiter.total_wait_s += grant_time - now
        fault_bw = self._fault_channel_bw
        serialization = size / (
            fault_bw[channel]
            if fault_bw is not None
            else self.channel_bandwidth_bytes_per_s
        )
        modulation_done = grant_time + serialization
        channel_arbiter.release_position = src
        channel_arbiter.release_time = modulation_done
        propagation = (
            self.max_propagation_s * ((channel - src) % self.num_clusters)
            / self.num_clusters
        )
        arrival = modulation_done + propagation

        energy = size * 8.0 * self.energy_per_bit_j
        self.channel_bytes[channel] += size
        self.messages_sent += 1
        self.bytes_sent += size
        self.total_dynamic_energy_j += energy

        return TransferResult(
            arrival, grant_time - now, serialization, propagation, 0, energy
        )


#: Token loss on one grant in ten plus detuned rings; seed 3 loses channel
#: 0's tokens at its grants 3 and 5.
_XBAR_FAULTS = FaultSpec(seed=3, token_loss_rate=0.1, ring_detuning_fraction=0.05)


def _faulted_pair(crossbar: OpticalCrossbar, reference: _ReferenceCrossbar):
    """Install one injector per side from :data:`_XBAR_FAULTS`.  The
    reference's bandwidth table comes from installing its injector on a
    throwaway crossbar of the same shape."""
    injector = FaultInjector(_XBAR_FAULTS)
    injector.install(crossbar, None, 256)
    reference_injector = FaultInjector(_XBAR_FAULTS)
    template = OpticalCrossbar(
        CORONA_DEFAULT.with_overrides({"num_clusters": crossbar.num_clusters})
    )
    reference_injector.install(template, None, 256)
    reference._fault_channel_bw = template._fault_channel_bw
    reference._fault_injector = reference_injector
    return injector, reference_injector


def _assert_same_crossbar_state(
    crossbar: OpticalCrossbar, reference: _ReferenceCrossbar
) -> None:
    for channel, real in crossbar.arbiter.channels.items():
        oracle = reference.channels[channel]
        assert real.release_time == oracle.release_time, channel
        assert real.release_position == oracle.release_position, channel
        assert real.grants == oracle.grants, channel
        assert real.total_wait_s == oracle.total_wait_s, channel
    assert crossbar.arbiter.average_wait_s() == reference.average_wait_s()
    assert crossbar.channel_bytes == reference.channel_bytes
    assert crossbar.messages_sent == reference.messages_sent
    assert crossbar.bytes_sent == reference.bytes_sent
    assert crossbar.total_dynamic_energy_j == reference.total_dynamic_energy_j


#: One crossbar transfer: ``(src, dst, data, epoch, slot)``.  Endpoints are
#: drawn often from 0-3, so destinations repeat (contested grants) and some
#: messages are local; ``data`` picks a 72-byte response over a 16-byte
#: request.  The request time is ``epoch * 20 ns + slot * 0.1 ns``: slots
#: go back in time within an epoch, across the 1.6 ns token revolution.
_XBAR_ENDPOINT = st.one_of(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=63)
)
_XBAR_TRANSFER = st.tuples(
    _XBAR_ENDPOINT,
    _XBAR_ENDPOINT,
    st.booleans(),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=40),
)

#: Channel 0 only, one local message among them: six grants, of which
#: :data:`_XBAR_FAULTS` loses the fourth and the sixth.
_XBAR_TOKEN_LOST = [
    (1, 0, True, 0, 5), (2, 0, False, 0, 0), (3, 0, True, 0, 2),
    (0, 0, True, 0, 1), (1, 0, True, 0, 3), (2, 0, True, 1, 0),
    (3, 0, False, 0, 4),
]


def _replay_crossbar_transfers(crossbar, reference, transfers) -> None:
    nodes = crossbar.num_clusters
    for src, dst, data, epoch, slot in transfers:
        kind = MessageType.READ_RESPONSE if data else MessageType.READ_REQUEST
        message = Message(src=src % nodes, dst=dst % nodes, message_type=kind)
        now = epoch * 20e-9 + slot * 0.1e-9
        assert crossbar.transfer(message, now) == reference.transfer(message, now)
    _assert_same_crossbar_state(crossbar, reference)


class TestCrossbarTransferProperties:
    @given(
        st.booleans(),
        st.lists(_XBAR_TRANSFER, max_size=150),
    )
    @example(True, _XBAR_TOKEN_LOST)
    @example(True, _XBAR_TOKEN_LOST + _XBAR_TOKEN_LOST)
    @settings(max_examples=200, deadline=None)
    def test_matches_inline_token_arbitration(self, with_faults, transfers):
        """Same result for every transfer; same token release time and
        position, grant count and summed wait on every channel; same
        average wait, and the same tokens lost and regeneration wait --
        with and without faults."""
        crossbar = OpticalCrossbar(CORONA_DEFAULT)
        reference = _ReferenceCrossbar(crossbar)
        injectors = _faulted_pair(crossbar, reference) if with_faults else None
        _replay_crossbar_transfers(crossbar, reference, transfers)
        if injectors is not None:
            real, oracle = (injector.stats for injector in injectors)
            assert real.tokens_lost == oracle.tokens_lost
            assert real.token_regen_wait_s == oracle.token_regen_wait_s

    def test_example_loses_a_token(self):
        """The pinned example above loses tokens, so the equality check
        covers the token-loss draw on every run."""
        crossbar = OpticalCrossbar(CORONA_DEFAULT)
        reference = _ReferenceCrossbar(crossbar)
        _, reference_injector = _faulted_pair(crossbar, reference)
        _replay_crossbar_transfers(crossbar, reference, _XBAR_TOKEN_LOST)
        assert reference_injector.stats.tokens_lost == 2


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
        (sx, sy), (dx, dy) = mesh.position(src), mesh.position(dst)
        assert len(route) == abs(sx - dx) + abs(sy - dy)
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
        inventory = corona_inventory(
            CORONA_DEFAULT.with_overrides({"num_clusters": clusters})
        )
        assert inventory.by_name()["Crossbar"].ring_resonators == clusters * clusters * 256

    @given(
        st.integers(min_value=2, max_value=128),
        st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=40, deadline=None)
    def test_inventory_counts_are_never_negative(self, clusters, wavelengths):
        inventory = corona_inventory(
            CORONA_DEFAULT.with_overrides(
                {
                    "num_clusters": clusters,
                    "crossbar_wavelengths_per_waveguide": wavelengths,
                }
            )
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
        crossbar = OpticalCrossbar(CORONA_DEFAULT)
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
        mesh = high_performance_mesh(CORONA_DEFAULT)
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
        assert all(len(cache_set) <= cache.associativity for cache_set in cache._sets)
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
