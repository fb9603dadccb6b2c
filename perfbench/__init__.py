"""End-to-end and per-layer benchmark of spheretrain training.

Run ``python3 perfbench/run.py`` from the repository root; see ``run.py``.
"""
