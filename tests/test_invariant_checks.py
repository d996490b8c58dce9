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


def _busy_without(monkeypatch, attr):
    """``busy`` that overlooks one kind of outstanding work."""
    def busy(self):
        return any(getattr(self, name) for name in (
            "_queued", "_ni_busy", "_pending_sends", "_posts", "_holding")
            if name != attr)

    monkeypatch.setattr(MeshNetwork, "busy", busy)


class TestExactlyOnce:
    # row 1 of the 4x4 mesh posts (NodeId(1, c), 4 + c); each fault rewrites
    # the payloads delivered so far, once, as soon as they hold what it
    # rewrites (ValueError until then), whichever packets carry them
    @staticmethod
    def _drop(slots):
        slots.remove((NodeId(1, 1), 5))

    @staticmethod
    def _duplicate(slots):
        slots.append(slots[slots.index((NodeId(1, 1), 5))])

    @staticmethod
    def _swap_origins(slots):
        i, j = slots.index((NodeId(1, 1), 5)), slots.index((NodeId(1, 2), 6))
        slots[i], slots[j] = (NodeId(1, 2), 5), (NodeId(1, 1), 6)

    @staticmethod
    def _alias_origin(slots):
        # NodeId(0, 4) lies outside the 4-column mesh, yet its flat index
        # 0 * 4 + 4 is NodeId(1, 0)'s
        slots[slots.index((NodeId(1, 0), 4))] = (NodeId(0, 4), 4)

    @pytest.mark.parametrize("mode", ["ru", "gather"])
    @pytest.mark.parametrize("fault, missing", [
        ("_drop", r"\[\(NodeId\(row=1, col=1\), 5\)\]"),
        ("_duplicate", r"duplicates"),
        ("_swap_origins", r"\[\(NodeId\(row=1, col=1\), 5\), \(NodeId\(row=1, col=2\), 6\)\]"),
        ("_alias_origin", r"\[\(NodeId\(row=1, col=0\), 4\)\]"),
    ], ids=["drop", "duplicate", "swap_origins", "alias_origin"])
    def test_corrupted_payloads(self, monkeypatch, mode, fault, missing):
        corrupt, done = getattr(self, fault), []
        finish = MeshNetwork._finish_packet

        def patched(net, *args, **kwargs):
            finish(net, *args, **kwargs)
            if done:
                return
            slots = [slot for pkt in net.delivered for slot in pkt.payloads]
            try:
                corrupt(slots)
            except ValueError:
                return
            done.append(True)
            # hand the rewritten payloads back to the packets, in order
            for pkt in net.delivered:
                pkt.payloads[:], slots = slots[:len(pkt.payloads)], slots[len(pkt.payloads):]
            net.delivered[-1].payloads.extend(slots)

        monkeypatch.setattr(MeshNetwork, "_finish_packet", patched)
        with pytest.raises(LostPayloadError, match=(
                r"^ready row 1: delivered payloads do not match posted ones "
                rf"\(missing or duplicated: {missing}\)$")):
            run_ready_row(CFG, 1, mode)


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
    # ``limits``: payload bits, payload bits and budget of a packet, and the
    # whole payloads one flit holds (``router.gather_limits``)
    def test_upload_duplicated_past_capacity(self, monkeypatch):
        arrival = network_module.gather_arrival

        def patched(flit, unit, limits):
            done = arrival(flit, unit, limits)
            if done == "upload":
                flit.payload_slots.append(flit.payload_slots[-1])
            return done

        monkeypatch.setattr(network_module, "gather_arrival", patched)
        with pytest.raises(SimulationError, match=(
                r"^gather packet exceeded its payload capacity$")):
            run_ready_row(MeshConfig(rows=6, cols=6), 2, "gather")

    def test_load_not_counted_in_head(self, monkeypatch):
        arrival = network_module.gather_arrival

        def patched(flit, unit, limits):
            done = arrival(flit, unit, limits)
            if done == "load":
                flit.aspace += limits[0]
            return done

        monkeypatch.setattr(network_module, "gather_arrival", patched)
        with pytest.raises(SimulationError, match=(
                r"^head free-space field out of sync with payloads$")):
            run_ready_row(CFG, 0, "gather")

    def test_upload_dropped(self, monkeypatch):
        # no flit has room for a payload, so a load is never uploaded
        arrival = network_module.gather_arrival
        monkeypatch.setattr(network_module, "gather_arrival",
                            lambda flit, unit, limits: arrival(flit, unit, (*limits[:3], 0)))
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
