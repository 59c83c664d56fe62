"""The repository benchmark: seeded workloads, a correctness gate, a
per-layer ledger and a traced run.  Entry point: ``perfbench/run.py``;
notes and the defect reproduction: ``perfbench/NOTES.md``.
"""
