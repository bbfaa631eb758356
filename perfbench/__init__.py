"""The dcrobot benchmark: canonical worlds, end-to-end metrics and a
per-layer traced split.  Run it with ``python3 perfbench/run.py``."""
