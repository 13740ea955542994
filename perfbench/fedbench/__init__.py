"""Federation benchmark: workloads, answer oracle, tracing and history.

Entry points live one directory up: ``run.py`` runs one workload and
prints its result line, ``compare.py`` diffs two points of the run
history. See ``NOTES.md`` for what each workload measures and why.
"""
