"""The repository's benchmark; ``perfbench/run.py`` is its command."""
