"""Rule implementations; importing this package registers every rule.

``python -m repro.devtools.lint --list-rules`` prints what each code
enforces (the rules' own ``description``); DESIGN.md §5 has the rationale
and each family's measured record.
"""

from repro.devtools.rules import (  # noqa: F401
    ambient,
    async_rules,
    exc_silent,
    ownership,
    race,
    retry_safe,
    task_life,
)
