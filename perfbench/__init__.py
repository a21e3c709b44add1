"""The repository benchmark: three workloads driven through ``repro``'s public API.

Run ``python3 perfbench/run.py --help`` for the command line; ``NOTES.md``
in this directory explains the workloads and the metric map.
"""
