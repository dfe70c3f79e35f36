"""STREAMHUB: the tiered content-based pub/sub engine (paper §III).

Assembles the AP → M → EP pipeline on the stream-processing engine, with a
client API (`subscribe` / `publish`), a source driver for rate-controlled
workloads and a sink operator measuring notification delays.
"""

from .messages import MatchList, Notification, Publication, Subscription
from .operators import (
    AccessPointHandler,
    ExitPointHandler,
    MatcherHandler,
    NotificationSinkHandler,
    KIND_MATCH_LIST,
    KIND_NOTIFICATION,
    KIND_NOTIFY,
    KIND_PUBLICATION,
    KIND_SUBSCRIPTION,
)
from .hub import HubConfig, MatchConfig, StreamHub
from .source import SourceDriver

__all__ = [
    "AccessPointHandler",
    "ExitPointHandler",
    "HubConfig",
    "KIND_MATCH_LIST",
    "KIND_NOTIFICATION",
    "KIND_NOTIFY",
    "KIND_PUBLICATION",
    "KIND_SUBSCRIPTION",
    "MatchConfig",
    "MatchList",
    "MatcherHandler",
    "Notification",
    "NotificationSinkHandler",
    "Publication",
    "SourceDriver",
    "StreamHub",
    "Subscription",
]
