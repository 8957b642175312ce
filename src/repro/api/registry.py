"""Name -> factory registries behind the Scenario API.

Three tables make everything the harness can run addressable by name:

* **configurations** -- ``name -> () -> SystemConfiguration``.  Seeded with
  the paper's five systems (:mod:`repro.core.configs`).
* **workloads** -- ``name -> (**params) -> workload``.  Seeded with the six
  synthetic patterns and the eleven SPLASH-2 models, in the paper's plot
  order (which is also the evaluation matrix's iteration order), plus the
  *explicit-only* ``trace-file`` wrapper for on-disk traces (explicit-only
  entries require parameters, so an empty ``workloads`` list -- "run every
  registered workload" -- skips them; see :meth:`Registry.default_names`).
* **sweeps** -- ``name -> (**params) -> SweepSpec``.  Seeded in
  :mod:`repro.sweeps.library` (importing :mod:`repro.sweeps` registers the
  stock specs) with the coherence, sensitivity and latency-throughput
  grids.

User modules extend any table without touching repro source::

    from repro.api import register_configuration, register_workload

    @register_configuration("XBar/ECM")
    def xbar_ecm():
        return SystemConfiguration(name="XBar/ECM", ...)

    @register_workload("Ping-Pong")
    def ping_pong(**params):
        return MyWorkload(**params)

A scenario file names such a module in its ``modules`` list and the runtime
imports it before resolving names -- in the parent *and* (for non-fork start
methods) in every worker process, so registered entries survive the trip
through :func:`~repro.harness.parallel.run_pairs`' worker pool.

Collisions raise :class:`RegistryCollisionError` (re-registering a name is
almost always a typo; pass ``replace=True`` to shadow deliberately) and
unknown names raise :class:`UnknownEntryError` listing what *is* registered.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.configs import SystemConfiguration, all_configurations
from repro.trace.splash2 import SPLASH2_ORDER, splash2_workload
from repro.trace.synthetic import SyntheticPattern, synthetic_workload


class RegistryError(ValueError):
    """Base class for registry failures."""


class RegistryCollisionError(RegistryError):
    """A name was registered twice without ``replace=True``."""


class UnknownEntryError(RegistryError, KeyError):
    """A name was looked up that no entry carries."""

    def __str__(self) -> str:  # KeyError quotes its args; keep the message
        return self.args[0]


class Registry:
    """One name -> factory table with decorator-based registration."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Callable] = {}
        self._explicit_only: set = set()

    def register(
        self,
        name: Optional[str] = None,
        *,
        replace: bool = False,
        explicit_only: bool = False,
    ) -> Callable:
        """Decorator registering a factory under ``name``.

        With no ``name`` the factory's ``__name__`` is used.  Registering an
        existing name raises :class:`RegistryCollisionError` unless
        ``replace=True``.  ``explicit_only`` entries need parameters to
        build (e.g. the ``trace-file`` workload needs a path), so they are
        excluded from :meth:`default_names` -- the expansion used when a
        scenario asks for *every* registered entry.
        """

        def decorator(factory: Callable) -> Callable:
            key = name if name is not None else factory.__name__
            if not isinstance(key, str) or not key:
                raise RegistryError(
                    f"{self.kind} registry names must be non-empty strings, "
                    f"got {key!r}"
                )
            if key in self._entries and not replace:
                raise RegistryCollisionError(
                    f"{self.kind} {key!r} is already registered; pass "
                    f"replace=True to shadow it"
                )
            self._entries[key] = factory
            if explicit_only:
                self._explicit_only.add(key)
            else:
                self._explicit_only.discard(key)
            return factory

        return decorator

    def get(self, name: str) -> Callable:
        """The factory registered under ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownEntryError(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            ) from None

    def build(self, name: str, /, **params):
        """Call the factory registered under ``name``.

        ``name`` is positional-only so ``params`` may itself carry a
        ``name`` key (the documented rename for synthetic workloads).
        """
        return self.get(name)(**params)

    def names(self) -> List[str]:
        """Registered names in registration (= paper plot) order."""
        return list(self._entries)

    def default_names(self) -> List[str]:
        """Names eligible for "every registered entry" expansion: the
        registration order minus explicit-only entries."""
        return [name for name in self._entries if name not in self._explicit_only]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)


#: The three public tables.
CONFIGURATIONS = Registry("configuration")
WORKLOADS = Registry("workload")
SWEEPS = Registry("sweep")


def register_configuration(name: Optional[str] = None, *, replace: bool = False):
    """Register a ``() -> SystemConfiguration`` factory by name."""
    return CONFIGURATIONS.register(name, replace=replace)


def register_workload(
    name: Optional[str] = None,
    *,
    replace: bool = False,
    explicit_only: bool = False,
):
    """Register a ``(**params) -> workload`` factory by name.

    The built object must offer ``generate_packed(seed, num_requests)``
    returning a :class:`~repro.trace.packed.PackedTrace`, a ``name`` and a
    ``window`` -- the same protocol the stock synthetic and SPLASH-2
    workloads implement.  A scenario naming a workload without
    ``generate_packed`` fails with a ``ScenarioError`` on
    ``workloads[i].name``.
    ``explicit_only`` entries (parameter-requiring wrappers like
    ``trace-file``) are skipped when a scenario's empty ``workloads`` list
    expands to every registered workload.
    """
    return WORKLOADS.register(name, replace=replace, explicit_only=explicit_only)


def register_sweep(name: Optional[str] = None, *, replace: bool = False):
    """Register a ``(**params) -> SweepSpec`` factory by name.

    Registered sweeps are runnable by name through ``corona-repro sweep
    run <name>`` and :func:`repro.sweeps.build_registered_sweep`.
    """
    return SWEEPS.register(name, replace=replace)


def build_configuration(name: str) -> SystemConfiguration:
    """Build the configuration registered under ``name``."""
    configuration = CONFIGURATIONS.build(name)
    if not isinstance(configuration, SystemConfiguration):
        raise RegistryError(
            f"configuration factory {name!r} returned "
            f"{type(configuration).__name__}, expected SystemConfiguration"
        )
    return configuration


def build_workload(name: str, /, **params):
    """Build the workload registered under ``name`` with ``params``
    (which may include a ``name`` rename -- the registry key is
    positional-only)."""
    return WORKLOADS.build(name, **params)


# ---------------------------------------------------------------------------
# Seed entries: everything previously runnable, now addressable by name.
# ---------------------------------------------------------------------------

def _seed() -> None:
    for configuration in all_configurations():
        # Bind the loop variable via a default argument; the paper systems
        # are immutable singletons, so the factory just hands them out.
        CONFIGURATIONS.register(configuration.name)(
            lambda _c=configuration: _c
        )

    _pattern_names = {
        SyntheticPattern.UNIFORM: "Uniform",
        SyntheticPattern.HOT_SPOT: "Hot Spot",
        SyntheticPattern.TORNADO: "Tornado",
        SyntheticPattern.TRANSPOSE: "Transpose",
        SyntheticPattern.BIT_REVERSAL: "Bit Reversal",
        SyntheticPattern.NEIGHBOR: "Neighbor",
    }
    for pattern, display_name in _pattern_names.items():
        WORKLOADS.register(display_name)(
            lambda _p=pattern.value, **params: synthetic_workload(_p, **params)
        )
    for benchmark in SPLASH2_ORDER:
        WORKLOADS.register(benchmark)(
            lambda _b=benchmark, **params: splash2_workload(_b, **params)
        )

    from repro.trace.file import trace_file_workload

    # Explicit-only: building it needs a path, so "run every registered
    # workload" must not trip over it.
    WORKLOADS.register("trace-file", explicit_only=True)(trace_file_workload)

    from repro.trace.address import registered_address_workload

    # Address-level workloads drive raw per-thread address streams through
    # the functional cache hierarchy, so their miss traces come from actual
    # cache behaviour.  Explicit-only: they are slower than the statistical
    # models, so the default 5 x 17 matrix must not grow them in.
    for kind in ("streaming", "resident", "random-shared"):
        WORKLOADS.register(f"addr-{kind}", explicit_only=True)(
            lambda _k=kind, **params: registered_address_workload(_k, **params)
        )


_seed()
