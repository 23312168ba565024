"""Time units shared by every layer (the crawl clock counts seconds)."""

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
