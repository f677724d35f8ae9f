"""End-to-end benchmark harness for the split-manufacturing attack code.

``python -m benchmarks.e2e run`` measures the workloads named in
``BENCHMARK.json`` from outside the program: subprocess wall time and
``wait4`` rusage, the run manifest the program writes, the server's
``/metrics``, and (with ``--traced``) timing wrappers installed by
:mod:`benchmarks.e2e.tracer` around each layer's public functions.
See ``benchmarks/e2e/README.md``.
"""
