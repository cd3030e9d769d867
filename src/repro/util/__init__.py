"""Small utilities shared by benches, examples and the CLI."""

from .lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "budget": [
        "BudgetExhausted",
        "CancellationToken",
        "Exhaustion",
        "RunBudget",
        "exit_code_for",
        "verdict_of",
    ],
    "metrics": ["Stats", "peak_rss_kb", "stage"],
    "retry": ["BackoffPolicy", "RetriesExhausted", "retry_call"],
    "tables": ["check", "render_table"],
})
