"""OWNERSHIP firing fixture: journal segments sealed outside the handoff.

``EventJournal.seal`` ends a segment's lifetime — only the reshard
coordinator may call it.  A shard loop sealing its own journal, a helper
function sealing one it was handed, or another state owner
(``NodeDBWriter`` writes NodeDB and CrawlStats, not journals) doing so is
a finding; ordinary ``close()`` / ``flush()`` calls are not tracked.
"""


class ShardLoop:
    def __init__(self, journal: "EventJournal"):
        self.journal = journal

    def retire(self):
        # a dial loop must hand off to the coordinator, not self-seal
        self.journal.seal()


def finish_segment(journal: "EventJournal"):
    journal.flush()  # untracked: flushing is anyone's to do
    journal.seal()


class NodeDBWriter:
    def __init__(self, journal: "EventJournal"):
        self.journal = journal

    def shutdown(self):
        # a writer of other shared state is not a writer of this one
        self.journal.seal()
