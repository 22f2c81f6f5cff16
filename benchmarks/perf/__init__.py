"""The repo's one performance benchmark (see ``README.md`` beside this file).

``run.py`` is the entry point declared in the root ``BENCHMARK.json``; the
other modules are its parts: frozen workload shapes and metric tables
(``workloads``), seed-driven inputs with fingerprints (``inputs``), the
per-workload subprocess (``worker``, plus ``server_child`` for the wire
workload), benchmark-owned layer spans (``trace``), the independent oracle
(``verify``) and the A/B comparator (``compare``).
"""
