"""Query benchmark for quasiform; run it with `python3 qbench/run.py`."""
