"""Unit conventions used throughout the Corona reproduction.

All simulation time is kept in *seconds* (floats).  All data sizes are kept in
*bytes* unless a name explicitly says bits.  Bandwidth is bytes per second.
A name that holds a quantity in any other unit says so in its suffix
(``latency_ns``, ``ring_round_trip_cycles``, ``offered_rps``), and a
conversion is written as the multiplication or division it is
(``cycles / clock_hz``, ``seconds * 1e9``); the ``unit-*`` lint rules
(:mod:`repro.analysis.unitflow`) check the suffixes.
"""

from __future__ import annotations

#: Size of a Corona cache line (Table 1 of the paper).
CACHE_LINE_BYTES = 64
