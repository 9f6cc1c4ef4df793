"""Engine invariant checker: a repo-specific static-analysis pass.

The scheduling engine's correctness rests on invariants no general-purpose
linter knows about and no test can see — deterministic simulation, state
written only by its owner module, non-blocking kernel callbacks.  This
package machine-checks them on every PR:

    python -m tools.analysis              # analyze src/repro
    python -m tools.analysis --list       # catalogue of checkers and codes

See ``docs/STATIC_ANALYSIS.md`` for the rules, the sabotage that justifies
each one, and the suppression syntax.
"""
