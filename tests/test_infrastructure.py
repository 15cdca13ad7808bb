"""Tests for the infrastructure baseline: MSS cell + Timestamp IR scheme."""

import pytest

from repro.cache.item import MasterCopy
from repro.errors import ConfigurationError, TopologyError
from repro.infrastructure.mss import CellClient, MSSCell
from repro.infrastructure.timestamp_ir import TimestampScheme
from repro.net.message import Message


def make_cell(sim, clients=3, items=3):
    cell = MSSCell(sim)
    for client_id in range(clients):
        cell.register_client(CellClient(client_id))
    for item_id in range(items):
        cell.install_item(MasterCopy(item_id, source_id=-1))
    return cell


class TestMSSCell:
    def test_duplicate_client_rejected(self, sim):
        cell = make_cell(sim)
        with pytest.raises(TopologyError):
            cell.register_client(CellClient(0))

    def test_unknown_lookups_raise(self, sim):
        cell = make_cell(sim)
        with pytest.raises(TopologyError):
            cell.client(99)
        with pytest.raises(TopologyError):
            cell.item(99)

    def test_broadcast_reaches_connected_only(self, sim):
        cell = make_cell(sim)
        received = {0: [], 1: [], 2: []}
        for client in cell.clients:
            client.inbox = received[client.client_id].append
        cell.set_connected(1, False)
        delivered = cell.broadcast(Message(sender=-1))
        sim.run()
        assert delivered == 2
        assert received[0] and received[2] and not received[1]
        assert cell.downlink_transmissions == 1  # one broadcast = one tx

    def test_uplink_requires_connection(self, sim):
        cell = make_cell(sim)
        got = []
        cell.set_mss_handler(lambda cid, msg: got.append(cid))
        assert cell.uplink(0, Message(sender=0))
        cell.set_connected(1, False)
        assert not cell.uplink(1, Message(sender=1))
        sim.run()
        assert got == [0]

    def test_unicast_down_to_sleeping_client_fails(self, sim):
        cell = make_cell(sim)
        cell.set_connected(0, False)
        assert not cell.unicast_down(0, Message(sender=-1))

    def test_disconnect_records_time(self, sim):
        cell = make_cell(sim)
        sim.run_until(42.0)
        cell.set_connected(0, False)
        assert cell.client(0).disconnected_at == 42.0
        cell.set_connected(0, True)
        assert cell.client(0).disconnected_at is None

    def test_invalid_hop_delay(self, sim):
        with pytest.raises(ConfigurationError):
            MSSCell(sim, hop_delay=-1.0)


class TestTimestampScheme:
    def build(self, sim, report_interval=20.0, history_windows=3):
        cell = make_cell(sim)
        scheme = TimestampScheme(
            sim, cell, report_interval=report_interval,
            history_windows=history_windows,
        )
        clients = {c.client_id: scheme.make_client(c) for c in cell.clients}
        return cell, scheme, clients

    def ask(self, sim, ts_client, item_id):
        answers = []
        ts_client.query(item_id, answers.append)
        return answers

    def test_parameters_validated(self, sim):
        cell = make_cell(sim)
        with pytest.raises(ConfigurationError):
            TimestampScheme(sim, cell, report_interval=0.0)
        with pytest.raises(ConfigurationError):
            TimestampScheme(sim, cell, history_windows=0)

    def test_query_waits_for_report(self, sim):
        cell, scheme, clients = self.build(sim)
        scheme.start()
        answers = self.ask(sim, clients[0], 0)
        sim.run_until(10.0)
        assert answers == []  # report at t=20 not yet out
        sim.run_until(25.0)
        assert answers == [0]  # fetched fresh version 0 from the MSS

    def test_cache_hit_after_first_fetch(self, sim):
        cell, scheme, clients = self.build(sim)
        scheme.start()
        first = self.ask(sim, clients[0], 0)
        sim.run_until(25.0)
        second = self.ask(sim, clients[0], 0)
        uplinks_before = cell.uplink_transmissions
        sim.run_until(45.0)
        assert second == [0]
        assert cell.uplink_transmissions == uplinks_before  # served locally

    def test_report_invalidates_updated_item(self, sim):
        cell, scheme, clients = self.build(sim)
        scheme.start()
        self.ask(sim, clients[0], 0)
        sim.run_until(25.0)  # cached v0
        master = cell.item(0)
        master.update(sim.now)
        scheme.record_update(master)
        answers = self.ask(sim, clients[0], 0)
        sim.run_until(45.0)  # next report lists the update -> refetch
        assert answers == [1]

    def test_short_sleep_keeps_cache(self, sim):
        cell, scheme, clients = self.build(sim, report_interval=20.0,
                                           history_windows=3)
        scheme.start()
        self.ask(sim, clients[0], 0)
        sim.run_until(25.0)
        cell.set_connected(0, False)
        sim.run_until(60.0)  # sleeps ~35 s < k*L = 60 s
        cell.set_connected(0, True)
        answers = self.ask(sim, clients[0], 0)
        sim.run_until(85.0)
        assert answers == [0]
        assert clients[0].cache_drops == 0

    def test_long_disconnection_drops_entire_cache(self, sim):
        """The classical failure the paper's Section 2 describes."""
        cell, scheme, clients = self.build(sim, report_interval=20.0,
                                           history_windows=2)
        scheme.start()
        self.ask(sim, clients[0], 0)
        self.ask(sim, clients[0], 1)
        sim.run_until(25.0)
        assert len(clients[0].cache) == 2
        cell.set_connected(0, False)
        sim.run_until(150.0)  # sleeps far beyond k*L = 40 s
        cell.set_connected(0, True)
        sim.run_until(170.0)  # first report after waking
        assert clients[0].cache_drops == 1
        assert len(clients[0].cache) == 0

    def test_report_window_trims_old_updates(self, sim):
        cell, scheme, clients = self.build(sim, report_interval=10.0,
                                           history_windows=2)
        scheme.start()
        master = cell.item(0)
        master.update(sim.now)
        scheme.record_update(master)
        sim.run_until(100.0)  # many reports later
        assert len(scheme._update_log) == 0  # aged out of the window

    def test_one_broadcast_serves_all_waiting_clients(self, sim):
        cell, scheme, clients = self.build(sim)
        scheme.start()
        answer_lists = [self.ask(sim, clients[c], 0) for c in range(3)]
        sim.run_until(25.0)
        assert all(answers == [0] for answers in answer_lists)
        assert scheme.reports_sent == 1
