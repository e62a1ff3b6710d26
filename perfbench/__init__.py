"""The repo benchmark; ``perfbench/run.py`` is its entry point."""
