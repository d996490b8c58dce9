import pytest

from gathernoc.config import MeshConfig
from gathernoc.network import MeshNetwork
from gathernoc.packet import PacketType, build_packet
from gathernoc.power import (
    EVENT_KINDS,
    ActivityCounters,
    EnergyCoefficients,
    energy_improvement,
    total_energy,
)
from gathernoc.systolic import run_ready_row
from gathernoc.topology import NodeId


def test_single_router_crossing_counts_each_event_once():
    # one unicast crossing one intermediate router on its way to the buffer
    cfg = MeshConfig(rows=1, cols=2)
    net = MeshNetwork(cfg)
    flits = build_packet(PacketType.UNICAST, NodeId(0, 0), NodeId(0, 1),
                         [(NodeId(0, 0), 1)], cfg, 0)
    net.schedule_injection(0, NodeId(0, 0), flits, to_buffer=True)
    net.run_until_idle(1000)
    net.assert_drained()
    rid0 = 0
    per = net.counters.per_router
    # both flits were written into and read out of router 0 and crossed
    # its switch and the one inter-router link
    assert per["buffer_read"][rid0] == 2
    assert per["xbar_traversal"][rid0] == 2
    assert per["link_traversal"][rid0] == 2
    assert per["sa_arb"][rid0] == 2
    assert per["va_arb"][rid0] == 1          # one VC allocation per packet
    # ejection out the buffer port is not a link traversal
    assert net.counters.total("link_traversal") == 2


def test_idle_cycles_make_no_increments():
    cfg = MeshConfig(rows=2, cols=2)
    net = MeshNetwork(cfg)
    for _ in range(50):
        net.step()
    assert all(net.counters.total(k) == 0 for k in net.counters.per_router)


def test_fig1_scenario_link_and_upload_counts():
    cfg = MeshConfig(rows=6, cols=6)
    ru = run_ready_row(cfg, 2, "ru")
    g = run_ready_row(cfg, 2, "gather")
    # head hop totals match the motivating example
    assert ru.hops == 15 and g.hops == 5
    # per-flit link counts are hops times flits per packet
    assert ru.counter_totals["link_traversal"] == 15 * cfg.unicast_len
    assert g.counter_totals["link_traversal"] == 5 * cfg.gather_len
    # every node but the initiator uploads en route
    assert g.counter_totals["payload_upload"] == 5
    assert ru.counter_totals["payload_upload"] == 0


def test_record_moves_only_its_kind():
    # the network counts a flit move once for its three kinds; an event
    # recorded by kind, a move kind included, still moves that kind alone
    for kind in EVENT_KINDS:
        counters = ActivityCounters()
        counters.record(kind, 2, 3)
        assert counters.totals() == {k: 3 if k == kind else 0 for k in EVENT_KINDS}
        assert counters.per_router == {k: [0, 0, 3] if k == kind else [] for k in EVENT_KINDS}


def test_zero_coefficients_zero_energy():
    counters = ActivityCounters()
    counters.record("buffer_write", 0, 100)
    zero = EnergyCoefficients(**{k: 0.0 for k in (
        "buffer_write", "buffer_read", "xbar_traversal", "link_traversal",
        "va_arb", "sa_arb", "payload_upload")})
    assert total_energy(counters, zero) == 0.0


def test_energy_linearity():
    a = ActivityCounters()
    a.record("buffer_write", 0, 10)
    a.record("link_traversal", 1, 4)
    b = ActivityCounters()
    b.record("buffer_write", 0, 30)
    b.record("link_traversal", 1, 12)
    assert total_energy(b) == 3 * total_energy(a)


def test_counters_reject_negative():
    counters = ActivityCounters()
    with pytest.raises(ValueError):
        counters.record("buffer_write", 0, -1)


def test_negative_coefficient_rejected():
    with pytest.raises(ValueError):
        EnergyCoefficients(buffer_write=-1.0)


def test_nan_coefficient_rejected():
    # nan compares false against everything, so `< 0` alone lets it through
    # and every energy comes out nan
    with pytest.raises(ValueError, match="non-negative"):
        EnergyCoefficients(buffer_write=float("nan"))


def test_infinite_coefficient_rejected():
    # inf passes `>= 0`, and every energy it touches comes out inf
    with pytest.raises(ValueError, match="finite and non-negative"):
        EnergyCoefficients(link_traversal=float("inf"))


def test_gather_saves_energy_and_sign_matches_hops():
    cfg = MeshConfig(rows=6, cols=6)
    ru = run_ready_row(cfg, 2, "ru")
    g = run_ready_row(cfg, 2, "gather")
    imp = energy_improvement(ru.energy, g.energy)
    assert imp > 0
    assert (ru.hops - g.hops > 0) == (imp > 0)


def test_scaled_fold_matches_direct_counts():
    a = ActivityCounters()
    a.record("sa_arb", 3, 7)
    delta = a.totals()
    b = ActivityCounters()
    b.add_scaled(delta, 4)
    assert b.total("sa_arb") == 28
