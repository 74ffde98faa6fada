"""End-to-end benchmark of the SpeakQL serving daemon.

``python3 perfbench/run.py --workload <dictate|correct> --seed N
--seconds S --trace <0|1>`` drives ``repro serve --async`` over TCP and
prints one JSON result line; see ``perfbench/NOTES.md``.
"""
