"""Training benchmark of dessim; run it with ``python3 perfbench/run.py``."""
