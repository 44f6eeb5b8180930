"""The repo benchmark: six workloads, six end-to-end metrics, per-layer spans.

See ``bench/README.md``.  Nothing here is imported by ``src``; the harness
reaches the runtime only through public callables, so a change that claims
a gain is judged by code it did not edit.
"""
