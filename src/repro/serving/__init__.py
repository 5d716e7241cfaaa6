"""The sponsored-search serving pipeline around the broad-match index.

The paper's introduction sketches the full flow: broad-match retrieval,
then "additional filters ... bid price, keyword-exclusion, clicked-through
rate, overlap with advertisements displayed earlier", then an auction that
ranks and prices the winners.  This package implements that pipeline:

* :mod:`repro.serving.auction` — generalized second-price (GSP) auction
  with quality scores (rank by bid x quality, price by the next slot);
* :mod:`repro.serving.server` — :class:`AdServer`: retrieval -> exclusion
  and budget filters -> auction, with per-campaign budget pacing and
  serving statistics.
"""

from repro.serving.auction import AuctionOutcome, SlotAward, run_gsp_auction
from repro.serving.request import (
    ServeRequest,
    WireSchemaError,
    ad_from_dict,
    ad_to_dict,
)
from repro.serving.server import AdServer, ServeResult, ServingStats

__all__ = [
    "AdServer",
    "AuctionOutcome",
    "ServeRequest",
    "ServeResult",
    "ServingStats",
    "SlotAward",
    "WireSchemaError",
    "ad_from_dict",
    "ad_to_dict",
    "run_gsp_auction",
]
