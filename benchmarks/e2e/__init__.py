"""End-to-end benchmark for the three paths a user waits on.

Run it with ``python benchmarks/e2e/run.py``; see ``README.md`` here.
"""
