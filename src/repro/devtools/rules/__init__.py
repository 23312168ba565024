"""Rule implementations; importing this package registers every rule.

Each rule's docstring states what its code enforces; DESIGN.md §5
has each code's contract, scope and the product mutant that pins it.
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
