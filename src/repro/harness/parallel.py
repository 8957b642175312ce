"""The one replay loop of the harness.

The (configuration, workload) pairs of the evaluation (85 in the full
matrix: 5 configurations x 17 workloads) are fully independent: each pair
builds its own network/memory/hub state from the configuration name and
replays an immutable trace.  :func:`run_pairs` replays such pairs -- in
process at ``jobs=1``, across a supervised pool of worker processes
otherwise, with near-linear wall-clock speedup on multicore hosts -- and
turns every outcome into a result or a
:class:`~repro.harness.resilience.PairFailure`.  Its callers,
:func:`repro.api.run` and the sweep engine, build the pairs with
:meth:`repro.api.run.ScenarioMatrix.pairs`.

Zero-copy trace shipping
------------------------
Traces are packed columns (:class:`~repro.trace.packed.PackedTrace`).  On
the pool path each distinct trace is *shipped by reference*: the columns are
laid out in one ``multiprocessing.shared_memory`` block and the workers
receive only the block's name plus a small shape header.  A worker maps the
block and replays ``memoryview`` casts over the parent's pages -- no
per-pair pickling, no per-worker copy, constant dispatch cost per pair
regardless of trace size, which is what makes the ``full`` and ``paper``
scale tiers practical.  Where shared memory is unavailable the packed
columns are pickled by value with each task instead (24 B/record).

Generation overlaps replay: :func:`repro.api.run` generates each workload's
trace as the fan-out consumes its pair stream, so while workers replay
workload *k*'s pairs the parent is already generating (and shipping)
workload *k+1*.

Supervision and resilience
--------------------------
The pool is supervised, not fire-and-forget: each worker is a
``multiprocessing.Process`` with its own duplex pipe, and the parent multiplexes
result pipes *and* process sentinels through ``multiprocessing.connection.
wait``.  A worker that dies mid-pair (OOM kill, segfault, injected chaos) is
therefore detected immediately, respawned, and its pending pair re-dispatched
-- the retried replay is bit-identical because pairs are pure functions of
their shipped arguments.  A :class:`~repro.harness.resilience.RetryPolicy`
adds per-pair wall-clock timeouts (hung workers are killed and their pair
retried), a bound on the retries (which wait 0.25 s, doubling with each
retry), and a partial-results mode in which pairs that stay broken become
structured :class:`~repro.harness.resilience.PairFailure` records instead of
aborting the run.

Determinism
-----------
Results are bit-identical for every ``jobs`` value:

* Trace generation happens once per workload **in the parent** (same seed,
  same generator state), and every replay -- in process or in a worker --
  reads exactly those packed columns.
* Each replay constructs a fresh ``SystemSimulator`` from the configuration
  name, so no state leaks between pairs and a retried pair reproduces its
  first attempt exactly.
* Results are collected in submission order (workloads outer,
  configurations inner for a scenario), so ``results`` lists compare equal
  element by element even when pool completions arrive out of order.
"""

from __future__ import annotations

import atexit
import gc
import importlib
import multiprocessing
import os
import time
from heapq import heappop, heappush
from multiprocessing import connection as _mp_connection
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.coherence import CoherenceConfig
from repro.core.config import CORONA_DEFAULT, CoronaConfig
from repro.core.results import WorkloadResult
from repro.core.system import SystemSimulator
from repro.faults import chaos as _chaos
from repro.faults.spec import FaultSpec
from repro.harness.resilience import (
    DEFAULT_POLICY,
    PairFailure,
    PairFailureError,
    RetryPolicy,
    retry_delay_s,
)
from repro.obs.artifacts import write_pair_artifacts
from repro.obs.log import configure_worker_logging, get_logger
from repro.obs.spec import ObservabilitySpec
from repro.trace.packed import PackedTrace

_log = get_logger(__name__)

try:  # pragma: no cover - exercised implicitly on every import
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without shm support
    _shared_memory = None


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def effective_jobs(jobs: int, count: int) -> int:
    """Workers a fan-out of ``count`` pairs uses: ``jobs`` (every available
    CPU when ``jobs`` <= 0), at most one per pair, at least one."""
    return min(jobs if jobs and jobs > 0 else available_cpus(), count) or 1


def timed(function: Callable, phases: Dict[str, float], phase: str) -> Callable:
    """``function``, adding the wall-clock seconds of each call to
    ``phases[phase]`` -- how :func:`repro.api.run` charges the trace
    generation its lazy pair stream does inside the fan-out.  Wall-clock
    reads belong to the harness, not to simulated-time code."""

    def call(*args):
        started = time.perf_counter()
        value = function(*args)
        phases[phase] = phases.get(phase, 0.0) + time.perf_counter() - started
        return value

    return call


class WorkerSetupError(RuntimeError):
    """A worker process could not set up a pair's configuration.

    Raised (and re-raised in the parent *without* the worker traceback) when
    a configuration name cannot be resolved in the worker or a scenario
    module fails to import there -- the actionable message replaces the old
    opaque ``KeyError`` wall from deep inside the pool.  Never retried: a
    missing module does not heal between attempts.
    """


def _resolve_configuration(name: str, modules: Sequence[str] = ()):
    """Resolve a configuration name inside a worker process.

    ``modules`` are the scenario's user modules: under the ``fork`` start
    method the parent's registry is inherited and they are already loaded,
    but under ``spawn``/``forkserver`` each worker starts from a fresh
    interpreter, so they must be re-imported before the name can resolve.
    Failures raise :class:`WorkerSetupError` with a remediation hint.
    """
    for module in modules:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise WorkerSetupError(
                f"worker could not import scenario module {module!r}: {exc}. "
                f"Registered factories must live in an importable module "
                f"(on PYTHONPATH in the workers too), not e.g. __main__."
            ) from None
    from repro.api import registry  # deferred: keeps import graph acyclic

    try:
        return registry.build_configuration(name)
    except registry.RegistryError as exc:
        hint = (
            " If the configuration is registered by a user module, list that "
            "module in the scenario's 'modules' so workers can import it."
            if not modules
            else ""
        )
        raise WorkerSetupError(
            f"worker could not resolve configuration {name!r}: {exc}.{hint}"
        ) from None


# ---------------------------------------------------------------------------
# Trace shipping
# ---------------------------------------------------------------------------

#: Worker-side cache of mapped shipments, keyed by shared-memory block name,
#: so a worker maps each trace's block once no matter how many
#: configurations it replays against it.  Values are ``(packed_trace,
#: shm)``; the block handle is kept alive for as long as the views exist.
_WORKER_CACHE: Dict[str, Tuple[PackedTrace, object]] = {}


@atexit.register
def _release_worker_cache() -> None:
    """Drop cached shipment mappings, views strictly before their blocks.

    Registered atexit (inherited by forked workers) so shared-memory handles
    are closed while interpreter teardown order is still deterministic --
    otherwise a block's ``__del__`` can run while a trace's memoryviews are
    alive and raise an ignored ``BufferError`` at shutdown.  Reference
    cycles can keep the last replay's per-thread views of the columns alive
    until a collection runs, so collect first.  Only pool workers fill the
    cache; every other process returns at once.
    """
    if not _WORKER_CACHE:
        return
    gc.collect()
    while _WORKER_CACHE:
        _name, (trace, shm) = _WORKER_CACHE.popitem()
        del trace
        try:
            shm.close()
        except BufferError:  # pragma: no cover - views still referenced
            pass


def _attach_shared_memory(name: str):
    """Attach to an existing shared-memory block without adopting ownership.

    Python < 3.13 registers every attachment with the resource tracker
    (bpo-39959); ``track=False`` (3.13+) avoids that.  On older interpreters
    the registration is harmless: the pool starts the parent's tracker
    before its workers, so every start method shares it, the duplicate
    registration is idempotent and the parent's ``unlink`` balances it.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return _shared_memory.SharedMemory(name=name)


class TraceShipment:
    """Parent-side handle of one packed trace shipped to worker processes.

    Workers receive only :attr:`handle`: ``(block_name, header)`` of a
    shared-memory block holding the columns, or -- on hosts that cannot
    create one -- the :class:`~repro.trace.packed.PackedTrace` itself,
    pickled by value with every task.  The parent keeps the block alive for
    the duration of the fan-out and releases it in :meth:`close`.
    """

    __slots__ = ("packed", "handle", "_shm")

    def __init__(self, packed: PackedTrace) -> None:
        self.packed = packed
        self._shm = None
        if _shared_memory is not None:
            try:
                self._shm = _shared_memory.SharedMemory(
                    create=True, size=max(packed.nbytes(), 1)
                )
            except OSError:
                pass
        if self._shm is None:
            _log.info("shared memory unavailable; shipping packed trace by value")
            self.handle = packed
        else:
            packed.copy_into(self._shm.buf)
            self.handle = (self._shm.name, packed.header())

    def close(self) -> None:
        """Release the parent-side storage (workers hold their own maps)."""
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            self._shm = None


def _resolve_trace(trace) -> PackedTrace:
    """Worker-side: a by-value trace as is, a shared-memory handle mapped
    (once per worker) into a view over the parent's block."""
    if isinstance(trace, PackedTrace):
        return trace
    name, header = trace
    cached = _WORKER_CACHE.get(name)
    if cached is None:
        shm = _attach_shared_memory(name)
        cached = _WORKER_CACHE[name] = (PackedTrace.from_buffer(header, shm.buf), shm)
    return cached[0]


def _replay_pair(
    configuration_name: str,
    trace,
    window: int,
    coherence: Optional[CoherenceConfig] = None,
    corona_config: Optional[CoronaConfig] = None,
    modules: Sequence[str] = (),
    faults: Optional[FaultSpec] = None,
    observability: Optional[ObservabilitySpec] = None,
) -> Tuple[WorkloadResult, float, float]:
    """Replay one (configuration, workload) pair, in process or in a worker.

    Module-level so it pickles under every multiprocessing start method.
    ``trace`` is a :class:`~repro.trace.packed.PackedTrace` or a
    :class:`TraceShipment` handle resolved against this worker's cache.
    Returns the result, the replay wall-clock seconds and the seconds spent
    writing telemetry artifacts.  ``coherence`` (a picklable frozen
    dataclass) enables the timed MOESI directory, ``corona_config`` carries
    scenario system overrides and ``faults`` the scenario's deterministic
    fault spec.  ``configuration_name`` resolves through the Scenario API
    registry (seeded with the five paper systems), with ``modules`` imported
    first so user-registered configurations exist in the worker too.

    ``observability`` (when active) is a *pair-resolved*
    :class:`~repro.obs.spec.ObservabilitySpec` -- its sink paths were
    already specialized for this pair in the parent -- so the replaying
    process writes the metrics/timeline/samples artifacts directly.  The
    write happens after the replay timer stops, so telemetry never pollutes
    the recorded replay seconds.
    """
    configuration = _resolve_configuration(configuration_name, modules)
    trace = _resolve_trace(trace)
    simulator = SystemSimulator(
        configuration=configuration,
        corona_config=corona_config or CORONA_DEFAULT,
        window_depth=window,
        coherence=coherence,
        faults=faults,
        observability=observability,
    )
    started = time.perf_counter()
    result = simulator.run(trace)
    seconds = time.perf_counter() - started
    sink_seconds = 0.0
    if observability is not None and observability.simulation_active:
        _written, sink_seconds = write_pair_artifacts(
            simulator, configuration_name, result.workload
        )
    return result, seconds, sink_seconds


# ---------------------------------------------------------------------------
# The supervised worker pool
# ---------------------------------------------------------------------------


class _RawFailure(NamedTuple):
    """One pair's terminal failure before names are attached.

    ``payload`` is the exception object when it pickled (so strict mode can
    re-raise the original), otherwise a message string.
    """

    kind: str
    payload: object


def _raw_message(raw: _RawFailure) -> str:
    if isinstance(raw.payload, BaseException):
        return f"{type(raw.payload).__name__}: {raw.payload}"
    return str(raw.payload)


def _raise_strict(raw: _RawFailure, failure: PairFailure) -> None:
    """Abort a strict (``allow_failures=False``) run for one failed pair.

    The same rule for every ``jobs`` value: a setup error re-raises clean,
    an error on the pair's only attempt re-raises the original exception,
    and anything that was retried (or is not an exception: crashes,
    timeouts) raises :class:`PairFailureError`.
    """
    if raw.kind == "setup":
        # Re-raise clean: the remote traceback (pool internals plus the
        # worker's frames) adds nothing to this actionable message.
        raise WorkerSetupError(str(raw.payload)) from None
    cause = raw.payload if isinstance(raw.payload, BaseException) else None
    if cause is not None and failure.attempts == 1:
        raise cause
    raise PairFailureError([failure]) from cause


def _pool_worker(conn) -> None:
    """Worker loop: receive ``(index, attempt, args)`` tasks, send outcomes.

    Runs until the parent sends ``None`` or the pipe closes.  Outcomes are
    ``(index, "ok", (result, seconds, sink_seconds))`` or ``(index, kind,
    payload)`` where ``kind`` is ``"setup"``/``"error"`` and ``payload`` the
    exception (or its rendering, when the exception does not pickle).
    Crashes and hangs send nothing -- the parent detects them through the
    process sentinel and the per-pair deadline.
    """
    configure_worker_logging()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent went away
            return
        if task is None:
            return
        index, attempt, args = task
        try:
            _chaos.maybe_sabotage(index, attempt, in_process=False)
            outcome = (index, "ok", _replay_pair(*args))
        except WorkerSetupError as exc:
            outcome = (index, "setup", str(exc))
        except KeyboardInterrupt:  # pragma: no cover - interactive abort
            return
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            outcome = (index, "error", exc)
        try:
            conn.send(outcome)
        except (EOFError, OSError, BrokenPipeError):  # pragma: no cover
            return
        except Exception:
            # The payload (an exotic exception) did not pickle; degrade to
            # its rendering so the parent still gets a structured outcome.
            conn.send((index, outcome[1], _raw_message(_RawFailure(
                outcome[1], outcome[2]
            ))))


class _Worker:
    """Parent-side handle of one pool worker process."""

    __slots__ = ("process", "conn", "task", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: The in-flight ``(index, attempt, args)`` task, or None when idle.
        self.task = None
        #: Wall-clock deadline of the in-flight task (None = no timeout).
        self.deadline: Optional[float] = None


def _spawn_worker(ctx) -> _Worker:
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=_pool_worker, args=(child_conn,), daemon=True)
    process.start()
    child_conn.close()
    return _Worker(process, parent_conn)


def _retire_worker(worker: _Worker, kill: bool = False) -> None:
    """Tear one worker down (politely, or with SIGKILL for hung ones)."""
    if kill and worker.process.is_alive():
        worker.process.kill()
    else:
        try:
            worker.conn.send(None)
        except Exception:
            pass
    worker.process.join(timeout=2.0)
    if worker.process.is_alive():  # pragma: no cover - stuck teardown
        worker.process.kill()
        worker.process.join(timeout=2.0)
    try:
        worker.conn.close()
    except Exception:  # pragma: no cover - already closed
        pass


def _pool_fan_out(pairs: Iterable[tuple], jobs: int, count: int,
                  policy: RetryPolicy):
    """Supervised fan-out: yield ``(result, seconds, sink_seconds,
    raw_failure, attempts, worker_name)`` per pair, in submission order.

    The parent multiplexes worker pipes and process sentinels through
    ``multiprocessing.connection.wait``: a sentinel firing while its pipe is
    silent means the worker died mid-pair (it is respawned and the pair
    retried); a passed deadline means the pair hung (the worker is killed,
    respawned, and the pair retried).  Retries obey the policy's bounds and
    wait :func:`~repro.harness.resilience.retry_delay_s`; an error is never
    retried, and pairs that stay broken yield a :class:`_RawFailure`
    instead of a result.  Completions arriving out of submission order are
    buffered so the yield order matches :func:`_serial_fan_out` exactly.
    """
    if os.name == "posix":
        # Traces are shipped lazily, after the workers start, so start the
        # resource tracker first: workers must share it, because a tracker
        # a worker starts on its own unlinks the parent's shared-memory
        # blocks when that worker exits.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    ctx = multiprocessing.get_context()
    workers: List[_Worker] = [_spawn_worker(ctx) for _ in range(jobs)]
    iterator = iter(pairs)
    exhausted = False
    next_index = 0
    #: Min-heap of ``(eligible_at, index, attempt, args)`` backoff retries.
    retry_heap: list = []
    #: Buffered out-of-order outcomes, keyed by submission index.
    outcomes: Dict[int, tuple] = {}
    next_emit = 0

    def record_failure(index: int, attempt: int, args, kind: str,
                       payload, worker_name: str = "") -> None:
        if attempt < policy.retries_for(kind):
            _log.info(
                "pair %d failed (%s); scheduling retry %d",
                index, kind, attempt + 1,
            )
            eligible = time.monotonic() + retry_delay_s(attempt + 1)
            heappush(retry_heap, (eligible, index, attempt + 1, args))
        else:
            outcomes[index] = (
                None, 0.0, 0.0, _RawFailure(kind, payload), attempt + 1,
                worker_name,
            )

    def respawn(worker: _Worker, kill: bool) -> None:
        _retire_worker(worker, kill=kill)
        replacement = _spawn_worker(ctx)
        worker.process = replacement.process
        worker.conn = replacement.conn
        worker.task = None
        worker.deadline = None

    try:
        while next_emit < count:
            now = time.monotonic()
            # Dispatch: eligible retries first, then fresh pairs (consumed
            # lazily, so trace generation overlaps the earliest replays).
            for worker in workers:
                if worker.task is not None:
                    continue
                if retry_heap and retry_heap[0][0] <= now:
                    _eligible, index, attempt, args = heappop(retry_heap)
                    task = (index, attempt, args)
                elif not exhausted:
                    try:
                        args = next(iterator)
                    except StopIteration:
                        exhausted = True
                        continue
                    task = (next_index, 0, args)
                    next_index += 1
                else:
                    continue
                worker.task = task
                worker.deadline = (
                    now + policy.timeout_s
                    if policy.timeout_s is not None
                    else None
                )
                try:
                    worker.conn.send(task)
                except (OSError, BrokenPipeError):
                    # Died idle between tasks: replace it and re-dispatch.
                    respawn(worker, kill=True)
                    worker.task = task
                    worker.deadline = (
                        now + policy.timeout_s
                        if policy.timeout_s is not None
                        else None
                    )
                    worker.conn.send(task)

            while next_emit in outcomes:
                yield outcomes.pop(next_emit)
                next_emit += 1
            if next_emit >= count:
                break

            busy = [w for w in workers if w.task is not None]
            if not busy:
                if retry_heap:
                    # Everything pending is backing off; sleep until the
                    # first retry becomes eligible.
                    time.sleep(
                        min(max(retry_heap[0][0] - time.monotonic(), 0.0), 0.2)
                    )
                    continue
                raise RuntimeError(  # pragma: no cover - invariant guard
                    "supervised pool stalled with work outstanding"
                )

            timeout = None
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            if deadlines:
                timeout = max(min(deadlines) - time.monotonic(), 0.0)
            if retry_heap:
                until = max(retry_heap[0][0] - time.monotonic(), 0.0)
                timeout = until if timeout is None else min(timeout, until)
            ready = set(
                _mp_connection.wait(
                    [w.conn for w in busy]
                    + [w.process.sentinel for w in busy],
                    timeout,
                )
            )
            now = time.monotonic()
            for worker in busy:
                if worker.task is None:
                    continue
                index, attempt, args = worker.task
                if worker.conn in ready:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        # Pipe broke mid-send: treat as a crash.
                        exitcode = worker.process.exitcode
                        name = worker.process.name
                        _log.warning(
                            "worker %s died (exit code %s) mid-send; "
                            "respawning", name, exitcode,
                        )
                        respawn(worker, kill=True)
                        record_failure(
                            index, attempt, args, "crash",
                            f"worker died (exit code {exitcode}) while "
                            f"replaying the pair",
                            name,
                        )
                        continue
                    worker.task = None
                    worker.deadline = None
                    _index, kind, payload = message
                    if kind == "ok":
                        result, seconds, sink_seconds = payload
                        outcomes[index] = (
                            result, seconds, sink_seconds, None, attempt + 1,
                            worker.process.name,
                        )
                    else:
                        record_failure(
                            index, attempt, args, kind, payload,
                            worker.process.name,
                        )
                elif worker.process.sentinel in ready:
                    # Died without sending: the satellite-1 case the old
                    # Pool hung on forever.
                    worker.process.join()
                    exitcode = worker.process.exitcode
                    name = worker.process.name
                    _log.warning(
                        "worker %s died (exit code %s) while replaying pair "
                        "%d; respawning", name, exitcode, index,
                    )
                    respawn(worker, kill=False)
                    record_failure(
                        index, attempt, args, "crash",
                        f"worker died (exit code {exitcode}) while replaying "
                        f"the pair",
                        name,
                    )
                elif worker.deadline is not None and now >= worker.deadline:
                    name = worker.process.name
                    _log.warning(
                        "pair %d exceeded its %gs timeout on worker %s; "
                        "killing and respawning", index, policy.timeout_s,
                        name,
                    )
                    respawn(worker, kill=True)
                    record_failure(
                        index, attempt, args, "timeout",
                        f"pair exceeded the per-pair timeout of "
                        f"{policy.timeout_s:g}s",
                        name,
                    )
    finally:
        for worker in workers:
            _retire_worker(worker, kill=worker.task is not None)


def _serial_fan_out(pairs: Iterable[tuple]):
    """In-process fan-out with the same outcome shape as the pool.

    Crashes and hangs cannot occur in process, and errors are never
    retried, so each pair is attempted once (the policy's ``timeout_s`` is
    ignored -- a replay cannot be preempted from its own thread); an error
    is yielded as a failure, exactly like the pool's.
    """
    for index, args in enumerate(pairs):
        replayed, raw = (None, 0.0, 0.0), None
        try:
            _chaos.maybe_sabotage(index, 0, in_process=True)
            replayed = _replay_pair(*args)
        except WorkerSetupError as exc:
            raw = _RawFailure("setup", str(exc))
        except Exception as exc:  # noqa: BLE001 - yielded as a failure
            raw = _RawFailure("error", exc)
        yield (*replayed, raw, 1, "in-process")


def run_pairs(
    pairs: Iterable[tuple],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    on_result: Optional[Callable[[WorkloadResult], None]] = None,
    policy: Optional[RetryPolicy] = None,
    on_outcome: Optional[Callable[..., None]] = None,
    count: Optional[int] = None,
) -> List[Optional[WorkloadResult]]:
    """Replay ``(configuration_name, trace, window, coherence[,
    corona_config, modules, faults, observability])`` tuples -- the one
    replay loop behind :func:`repro.api.run`, the sweeps and ad-hoc pair
    lists.

    ``trace`` is a :class:`~repro.trace.packed.PackedTrace`; the optional
    trailing elements carry scenario system overrides, worker setup modules,
    the fault spec and a pair-resolved telemetry spec.  ``pairs`` may be any
    iterable, with ``count`` its length when it has no ``len``.  It is
    consumed as pairs are dispatched, so a stream that generates each trace
    on first use overlaps generation with the earlier pairs' replays.

    ``jobs`` is the worker count (``0`` = every available CPU), clamped to
    the pair count.  At 1 the pairs replay in this process with no pool and
    no shipping; otherwise each distinct trace is shipped once through a
    :class:`TraceShipment` and the pairs fan out over the supervised pool.
    Either way results come back in submission order, bit-identical.
    ``on_result`` receives each result the moment it is collected -- the
    streaming hook of the Scenario API and the sweep checkpoints -- and
    ``progress`` one line per finished pair.

    ``policy`` governs retries/timeouts/partial results (default:
    :data:`~repro.harness.resilience.DEFAULT_POLICY` -- crashes recovered,
    failures abort as :func:`_raise_strict` describes).  Under
    ``allow_failures`` the returned list holds ``None`` at failed pairs'
    positions.  ``on_outcome(position, result, failure, attempts, seconds,
    worker, sink_seconds)`` reports every pair's fate, successes included:
    ``seconds`` is the replay wall clock measured where the pair ran,
    ``worker`` that process's name (``"in-process"`` at ``jobs=1``) and
    ``sink_seconds`` the time spent writing its telemetry artifacts.
    """
    if policy is None:
        policy = DEFAULT_POLICY
    if count is None:
        count = len(pairs)
    jobs = effective_jobs(jobs, count)
    labels: List[Tuple[str, str]] = []
    shipments: Dict[int, TraceShipment] = {}

    def calls():
        for configuration_name, trace, *rest in pairs:
            labels.append((configuration_name, trace.name))
            if jobs > 1:
                shipment = shipments.get(id(trace))
                if shipment is None:
                    shipment = shipments[id(trace)] = TraceShipment(trace)
                trace = shipment.handle
            yield (configuration_name, trace, *rest)

    outcomes = (
        _serial_fan_out(calls())
        if jobs == 1
        else _pool_fan_out(calls(), jobs, count, policy)
    )
    results: List[Optional[WorkloadResult]] = []
    try:
        for position, outcome in enumerate(outcomes):
            result, seconds, sink_seconds, raw, attempts, worker = outcome
            failure = None
            if raw is not None:
                configuration_name, workload_name = labels[position]
                failure = PairFailure(
                    configuration=configuration_name,
                    workload=workload_name,
                    kind=raw.kind,
                    message=_raw_message(raw),
                    attempts=attempts,
                )
                if not policy.allow_failures:
                    _raise_strict(raw, failure)
            results.append(result)
            if on_outcome is not None:
                on_outcome(
                    position, result, failure, attempts, seconds, worker,
                    sink_seconds,
                )
            if failure is not None:
                if progress is not None:
                    progress(
                        f"{workload_name:<10} {configuration_name:<10} "
                        f"FAILED ({raw.kind} after {attempts} attempt(s))"
                    )
                continue
            if on_result is not None:
                on_result(result)
            if progress is not None:
                progress(
                    f"{result.workload:<10} {result.configuration:<10} "
                    f"exec={result.execution_time_s * 1e6:9.2f} us "
                    f"bw={result.achieved_bandwidth_tbps:6.3f} TB/s "
                    f"lat={result.average_latency_ns:8.1f} ns"
                )
    finally:
        outcomes.close()
        for shipment in shipments.values():
            shipment.close()
    return results
