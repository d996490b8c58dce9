"""Fault injection: every run-time invariant check fires on the one fault it
guards against.  Each test patches one simulator method so that it drops,
duplicates or corrupts one thing, and expects the check's exception class
and message; the checks themselves are left as they are."""
import dataclasses

import pytest

from gathernoc import network as network_module, systolic
from gathernoc.config import MeshConfig
from gathernoc.errors import DrainError, LostPayloadError, SimulationError
from gathernoc.network import MeshNetwork
from gathernoc.systolic import run_convolution, run_ready_row
from gathernoc.topology import NodeId
from gathernoc.workload import LayerConfig

CFG = MeshConfig(rows=4, cols=4)


def _patch_after_finish(monkeypatch, corrupt):
    """Run ``corrupt`` on each packet as it is delivered."""
    finish = MeshNetwork._finish_packet

    def patched(self, *args, **kwargs):
        finish(self, *args, **kwargs)
        corrupt(self.delivered[-1])

    monkeypatch.setattr(MeshNetwork, "_finish_packet", patched)


def _busy_without(monkeypatch, attr):
    """``busy`` that overlooks one kind of outstanding work."""
    def busy(self):
        return any(getattr(self, name) for name in (
            "_queued", "_ni_busy", "_pending_sends", "_posts", "_holding")
            if name != attr)

    monkeypatch.setattr(MeshNetwork, "busy", busy)


class TestExactlyOnce:
    def test_dropped_payload(self, monkeypatch):
        def drop(pkt):
            if pkt.src == NodeId(0, 1):
                pkt.payloads.clear()

        _patch_after_finish(monkeypatch, drop)
        with pytest.raises(LostPayloadError, match=(
                r"^ready row 0: delivered payloads do not match posted ones "
                r"\(missing or duplicated: \[\(NodeId\(row=0, col=1\), 1\)\]\)$")):
            run_ready_row(CFG, 0, "ru")

    def test_duplicated_payload(self, monkeypatch):
        def duplicate(pkt):
            if pkt.src == NodeId(0, 1):
                pkt.payloads.append(pkt.payloads[0])

        _patch_after_finish(monkeypatch, duplicate)
        with pytest.raises(LostPayloadError, match=(
                r"^ready row 0: delivered payloads do not match posted ones "
                r"\(missing or duplicated: duplicates\)$")):
            run_ready_row(CFG, 0, "ru")


class TestDrain:
    def test_stray_staged_flit(self, monkeypatch):
        eject = MeshNetwork._eject

        def patched(self, flit, *args):
            eject(self, flit, *args)
            self._staging.setdefault(-1, [flit])   # one flit staged twice

        monkeypatch.setattr(MeshNetwork, "_eject", patched)
        with pytest.raises(DrainError, match=(
                r"^network did not drain: flits left behind$")):
            run_ready_row(CFG, 0, "ru")

    def test_overlooked_send(self, monkeypatch):
        _busy_without(monkeypatch, "_pending_sends")
        net = MeshNetwork(CFG)
        net.schedule_unicast_result(NodeId(0, 0), 0, 50, None)
        net.run_until_idle(1_000)
        with pytest.raises(DrainError, match=(
                r"^network did not drain: scheduled work left behind$")):
            net.assert_drained()

    def test_overlooked_pending_payload(self, monkeypatch):
        _busy_without(monkeypatch, "_holding")
        net = MeshNetwork(CFG, timeout_table={(0, 1): 100})
        net.schedule_post(0, NodeId(0, 1), 1)
        net.run_until_idle(1_000)
        with pytest.raises(DrainError, match=(
                r"^network did not drain: a payload is still pending$")):
            net.assert_drained()

    def test_flit_counted_twice(self, monkeypatch):
        eject = MeshNetwork._eject
        extra = []

        def patched(self, *args):
            eject(self, *args)
            if not extra:
                extra.append(True)
                self.flits_ejected += 1

        monkeypatch.setattr(MeshNetwork, "_eject", patched)
        with pytest.raises(DrainError, match=(
                r"^flit conservation violated: 8 injected, 9 ejected$")):
            run_ready_row(CFG, 0, "ru")


class TestGatherPacket:
    def test_upload_duplicated_past_capacity(self, monkeypatch):
        upload = network_module.upload_payload

        def patched(flit, unit, config):
            done = upload(flit, unit, config)
            if done:
                flit.payload_slots.append(flit.payload_slots[-1])
            return done

        monkeypatch.setattr(network_module, "upload_payload", patched)
        with pytest.raises(SimulationError, match=(
                r"^gather packet exceeded its payload capacity$")):
            run_ready_row(MeshConfig(rows=6, cols=6), 2, "gather")

    def test_load_not_counted_in_head(self, monkeypatch):
        load = network_module.gather_load_check

        def patched(head, unit, config):
            granted = load(head, unit, config)
            if granted:
                head.aspace += config.gather_payload_bits
            return granted

        monkeypatch.setattr(network_module, "gather_load_check", patched)
        with pytest.raises(SimulationError, match=(
                r"^head free-space field out of sync with payloads$")):
            run_ready_row(CFG, 0, "gather")

    def test_upload_dropped(self, monkeypatch):
        monkeypatch.setattr(network_module, "upload_payload", lambda flit, unit, config: False)
        with pytest.raises(SimulationError, match=(
                r"^reserved upload never completed at \(0,1\)$")):
            run_ready_row(CFG, 0, "gather")


def test_arbitration_without_credits(monkeypatch):
    arbitrate = MeshNetwork._arbitrate

    def patched(self, t):
        # arbitrate as if every input queue were deep enough for any flit
        config = self.config
        self.config = dataclasses.replace(config, buffer_depth=1 << 20)
        try:
            return arbitrate(self, t)
        finally:
            self.config = config

    monkeypatch.setattr(MeshNetwork, "_arbitrate", patched)
    with pytest.raises(SimulationError, match=r"^credit discipline violated$"):
        run_ready_row(dataclasses.replace(CFG, buffer_depth=1), 0, "ru")


def test_round_measured_unlike_its_class(monkeypatch):
    # 4x4 mesh, 16 input vectors x 6 filters: rounds 0, 2, 4 and 6 form the
    # 4x4 class; round 4 collects one cycle later than the others, so it
    # measures otherwise than the class's row networks
    layer = LayerConfig("t", "t", in_channels=2, kernels=6, kernel_side=1,
                        layer_side=1, input_vectors=16)
    simulate = systolic._simulate_round

    def patched(net, mode, shape, what, ready_base, timeout_table):
        m = simulate(net, mode, shape, what, ready_base, timeout_table)
        return dataclasses.replace(m, collection=m.collection + (what == "round 4"))

    monkeypatch.setattr(systolic, "_simulate_round", patched)
    with pytest.raises(SimulationError, match=(
            r"^round 4: the whole mesh measures its 4x4 class otherwise than its "
            r"row networks do$")):
        run_convolution(layer, CFG, "ru", replay=False)
