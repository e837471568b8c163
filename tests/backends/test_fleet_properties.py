"""Property-based fleet invariants over random event sequences.

The chaos matrix pins hand-picked transitions; this suite drives
*random* sequences of fleet events — join, kill, drain, readmit,
respec-to-the-same-spec — interleaved with recall batches, and asserts
the two control-plane invariants after every batch:

* **bit-identity** — every batch result equals the serial reference
  exactly (the ideal path has no stacked-LAPACK shape sensitivity, so
  any difference is a routing/transport bug, not numerics);
* **routing discipline** — no shard is ever routed to a drained or dead
  replica: its fleet-side ``rows_served`` counter is frozen for as long
  as it is out of routing (re-spec canary recalls are control traffic
  and deliberately bypass routing, which is why the assertion watches
  the dispatch counter, not the worker's command counter).

Each example boots its own three worker agents (two seeded members, one
joinable) so killed workers never leak between examples.  Event
semantics are guarded — never kill or drain below one routable replica
— because a fleet with no members *correctly* refuses batches, which is
a different property (pinned in ``test_fleet.py``/faults) from the
invariance under survivable events exercised here.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="property suite needs hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import FleetSupervisor, WorkerServer
from tests.backends.strategies import build_test_amm
from tests.backends.test_equivalence import assert_results_equal
from tests.backends.test_remote import wait_until

#: Shared geometry for every example (module construction is the
#: expensive part; the control plane is geometry-agnostic).
FEATURES = 16
TEMPLATES = 4
AMM = build_test_amm(FEATURES, TEMPLATES, seed=11)

CODES = (np.arange(12 * FEATURES, dtype=np.int64).reshape(12, FEATURES) * 5) % 32
SEEDS = np.arange(12, dtype=np.int64) + 400
REFERENCE = AMM.recognise_batch_seeded(CODES, SEEDS)

EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["batch", "join", "kill", "drain", "readmit", "respec"]),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=8,
)


class _Driver:
    """Applies a random event sequence to a real fleet, with guards."""

    def __init__(self):
        self.servers = [WorkerServer().start() for _ in range(3)]
        # Cached: a closed listener cannot answer getsockname() any more.
        self.addresses = [server.address for server in self.servers]
        self.joined = {0, 1}
        self.admitted = {0, 1}
        self.up = {0, 1, 2}
        self.fleet = FleetSupervisor(
            AMM,
            worker_addresses=[self.addresses[0], self.addresses[1]],
            min_shard_size=2,
            heartbeat_interval=0.1,
            backoff_base=0.02,
            backoff_max=0.2,
            connect_timeout=2.0,
            io_timeout=10.0,
        ).prepare()

    def routable(self, excluding=None) -> set:
        members = {
            index
            for index in self.joined & self.admitted & self.up
        }
        members.discard(excluding)
        return members

    def apply(self, event: str, index: int) -> None:
        address = self.addresses[index]
        if event == "batch":
            self.check_batch()
        elif event == "join":
            # Prefer admitting the never-seen worker; otherwise readmit.
            target = 2 if 2 not in self.joined and 2 in self.up else index
            if target in self.up:
                self.fleet.join(self.addresses[target])
                self.joined.add(target)
                self.admitted.add(target)
        elif event == "kill":
            if index in self.up and self.routable(excluding=index):
                self.servers[index].close()
                self.up.discard(index)
                if index in self.joined:
                    replica = self.fleet._find(address)
                    assert wait_until(lambda: not replica.alive, timeout=10.0)
        elif event == "drain":
            if (
                index in self.joined
                and index in self.admitted
                and self.routable(excluding=index)
            ):
                self.fleet.drain(address, timeout=10.0)
                self.admitted.discard(index)
        elif event == "readmit":
            if index in self.joined and index not in self.admitted and index in self.up:
                self.fleet.join(address)
                self.admitted.add(index)
        elif event == "respec":
            if self.routable():
                report = self.fleet.respec(drain_timeout=10.0)
                outcomes = {entry["address"]: entry["outcome"] for entry in report}
                for member in self.joined:
                    host, port = self.addresses[member]
                    outcome = outcomes[f"{host}:{port}"]
                    if member in self.up:
                        assert outcome == "updated"
                    else:
                        assert outcome in ("skipped-dead", "lost")

    def check_batch(self) -> None:
        # Snapshot every out-of-routing replica's dispatch counter …
        frozen = {}
        for member in self.joined:
            if member in self.admitted and member in self.up:
                continue
            replica = self.fleet._find(self.addresses[member])
            frozen[member] = replica.rows_served
        result = self.fleet.recall_batch_seeded(CODES, SEEDS)
        assert_results_equal(result, REFERENCE)
        # … and assert not one shard row landed on any of them.
        for member, rows_before in frozen.items():
            replica = self.fleet._find(self.addresses[member])
            assert replica.rows_served == rows_before, (
                f"shard routed to non-routable replica {replica.address}"
            )

    def close(self) -> None:
        self.fleet.close()
        for server in self.servers:
            server.close()


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(events=EVENTS)
def test_random_fleet_events_preserve_bits_and_routing(events):
    driver = _Driver()
    try:
        for event, index in events:
            driver.apply(event, index)
        # Always end serving: whatever the sequence did, the fleet still
        # answers — bit-identically — from whoever remains routable.
        driver.check_batch()
        assert driver.fleet.fleet_stats()["routable"] == len(driver.routable())
    finally:
        driver.close()
