"""Document modification vs interrupted transfer (paper Section 4.1).

Proxy logs record the bytes *transferred*, not the document's full size.
When the logged size of a URL changes between successive requests, the
paper distinguishes two causes:

* the size changed by **less than 5 %** → the document was *modified* on
  the origin server; the request counts as a miss and any cached copy is
  stale;
* the size changed by **5 % or more** → the client *interrupted* the
  transfer; the document itself is unchanged and a cached copy remains
  valid.

(The direction of the rule is deliberate: edits to a page typically
change its size slightly, while an aborted download of a large file moves
the logged size by a lot.)  The paper contrasts this with Jin &
Bestavros' treatment, where *any* size change counts as a modification —
that difference explains the one result where the two studies disagree,
and is exposed here as :attr:`ModificationPolicy.ANY_CHANGE` for the
ablation benchmark.

One asymmetric refinement: when the logged size *grows* past the
tolerance, the earlier observation must itself have been a partial
transfer, so the detector raises its canonical full size and reports the
grow event; a cached (shorter) copy cannot serve the full document, so
the simulator treats it like an invalidation as well.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict


class ModificationPolicy(enum.Enum):
    """How size changes between successive requests are interpreted."""

    #: The paper's rule: < 5 % delta = modification, >= 5 % = interruption.
    PAPER = "paper"
    #: Jin & Bestavros' rule: any size change is a modification.
    ANY_CHANGE = "any-change"


class SizeEvent(enum.Enum):
    """Classification of one request's size relative to the last one."""

    FIRST = "first"              # first request to this URL
    UNCHANGED = "unchanged"      # same size as before
    MODIFIED = "modified"        # document changed; cached copy stale
    INTERRUPTED = "interrupted"  # partial transfer; cached copy valid
    GREW = "grew"                # earlier observation was partial


@dataclass(frozen=True)
class SizeObservation:
    """Outcome of feeding one request's logged size to the detector.

    Attributes:
        event: What this size change means.
        document_size: Detector's current belief of the full document
            size (canonical size) after this request.
        invalidates: True when a cached copy must be treated as stale
            (modification, or a grow revealing the cached copy as
            incomplete).
    """

    event: SizeEvent
    document_size: int
    invalidates: bool


class ModificationDetector:
    """Tracks per-URL canonical sizes and classifies size changes.

    The detector is fed *every* request (hit or miss, cached or not), as
    the paper's simulator does, so the canonical size reflects the full
    history of each document.
    """

    def __init__(self, tolerance: float = 0.05,
                 policy: ModificationPolicy = ModificationPolicy.PAPER):
        if not 0.0 < tolerance < 1.0:
            raise ValueError("tolerance must be in (0, 1)")
        self.tolerance = tolerance
        self.policy = policy
        self._sizes: Dict[str, int] = {}
        self.counts: Dict[SizeEvent, int] = {event: 0 for event in SizeEvent}

    def __len__(self) -> int:
        return len(self._sizes)

    def observe(self, url: str, logged_size: int) -> SizeObservation:
        """Classify one request's logged size and update state."""
        previous = self._sizes.get(url)
        if previous is None:
            self._sizes[url] = logged_size
            return self._emit(SizeEvent.FIRST, logged_size, False)
        if logged_size == previous:
            return self._emit(SizeEvent.UNCHANGED, previous, False)

        if self.policy is ModificationPolicy.ANY_CHANGE:
            self._sizes[url] = logged_size
            return self._emit(SizeEvent.MODIFIED, logged_size, True)

        # A zero previous size is the rule's limit: an infinite delta.
        delta = (abs(logged_size - previous) / previous if previous
                 else math.inf)
        if delta < self.tolerance:
            self._sizes[url] = logged_size
            return self._emit(SizeEvent.MODIFIED, logged_size, True)
        if logged_size > previous:
            self._sizes[url] = logged_size
            return self._emit(SizeEvent.GREW, logged_size, True)
        return self._emit(SizeEvent.INTERRUPTED, previous, False)

    def canonical_size(self, url: str) -> int:
        """Current full-size belief for a URL (KeyError when unseen)."""
        return self._sizes[url]

    def _emit(self, event: SizeEvent, size: int,
              invalidates: bool) -> SizeObservation:
        self.counts[event] += 1
        return SizeObservation(event, size, invalidates)

    def summary(self) -> Dict[str, int]:
        """Event counts by name, for reporting."""
        return {event.value: count for event, count in self.counts.items()}
