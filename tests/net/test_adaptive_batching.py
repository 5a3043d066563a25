"""Adaptive batching: size-or-deadline flush, load-sensed window, purge.

Covers the EXP-A6 tentpole at the network layer, the idle-link rule
(only a link that flushed within the window lingers), plus the
stale-flush bugfix: a sender crash must kill its buffered outboxes, so
a quick restart cannot let the old scheduled deadline transmit
pre-crash messages.
"""

import pytest

from repro.net.batching import AdaptiveWindow
from repro.net.message import Message
from repro.net.network import FixedLatency, Network
from repro.net.node import Node


def make_net(kernel, **kwargs):
    net = Network(kernel, **kwargs)
    net.add_node(Node(kernel, "central", is_central=True))
    a = net.add_node(Node(kernel, "a"))
    b = net.add_node(Node(kernel, "b"))
    return net, a, b


def ping(dest="a", sender="central", kind="ping"):
    return Message(kind=kind, sender=sender, dest=dest)


class TestAdaptiveWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveWindow(0.0)

    def test_pressure_shrinks_to_floor(self):
        ctl = AdaptiveWindow(8.0)
        for _ in range(10):
            ctl.observe(1000.0)
        assert ctl.current == pytest.approx(1.0)  # floor = base / 8
        assert ctl.shrinks > 0

    def test_relief_rewidens_to_base(self):
        ctl = AdaptiveWindow(8.0)
        for _ in range(10):
            ctl.observe(1000.0)
        for _ in range(10):
            ctl.observe(0.0)
        assert ctl.current == pytest.approx(8.0)
        assert ctl.widens > 0

    def test_neutral_band_holds_window(self):
        ctl = AdaptiveWindow(8.0)
        ctl.observe(10.0)  # above relief (8) yet below pressure (12)
        assert ctl.current == pytest.approx(8.0)
        assert ctl.shrinks == 0 and ctl.widens == 0

    def test_singleton_deadline_flush_counts_as_relief(self):
        ctl = AdaptiveWindow(8.0)
        for _ in range(10):
            ctl.observe(1000.0)
        assert ctl.current == pytest.approx(1.0)
        # A lone message on a busy link waits at most the current
        # window -- a *streak* of those must read as relief or a
        # trickle of traffic never recovers the base window.
        for _ in range(ctl.PATIENCE):
            ctl.observe(ctl.current)
        assert ctl.current == pytest.approx(2.0)

    def test_stray_relief_mid_burst_does_not_widen(self):
        ctl = AdaptiveWindow(8.0)
        for _ in range(10):
            ctl.observe(1000.0)
        ctl.observe(0.0)  # one singleton flush amid the burst
        assert ctl.current == pytest.approx(1.0)
        ctl.observe(1000.0)  # burst resumes: streak resets
        ctl.observe(0.0)
        ctl.observe(0.0)
        assert ctl.current == pytest.approx(1.0)
        assert ctl.widens == 0


class TestSizeOrDeadline:
    def test_size_trigger_flushes_full_envelope(self, kernel):
        net, a, _ = make_net(
            kernel, latency=FixedLatency(1.0), batch_window=10.0,
            batch_max_msgs=3,
        )
        for _ in range(3):
            net.send(ping())
        # The third message filled the envelope: it left immediately,
        # well before the 10-unit deadline.
        kernel.run(until=2.0)
        assert net.delivered == 3
        assert net.envelopes == 1
        assert net.outbox.size_flushes == 1
        assert net.outbox.deadline_flushes == 0

    def test_deadline_still_fires_for_partial_batch(self, kernel):
        net, a, _ = make_net(
            kernel, latency=FixedLatency(1.0), batch_window=4.0,
            batch_max_msgs=3,
        )
        net.send(ping())
        net.send(ping())
        kernel.run()
        assert net.delivered == 2
        assert net.envelopes == 1
        assert net.outbox.size_flushes == 0
        assert net.outbox.deadline_flushes == 1

    def test_stale_deadline_after_size_flush_is_inert(self, kernel):
        net, a, _ = make_net(
            kernel, latency=FixedLatency(1.0), batch_window=5.0,
            batch_max_msgs=2,
        )
        net.send(ping())
        net.send(ping())  # size flush at t=0 (generation bump)
        kernel.call_at(1.0, lambda: net.send(ping()))
        kernel.run()
        # The second envelope waits its own full window (flushes at
        # t=6): the stale t=5 deadline from the size-flushed generation
        # must not ship it early.
        assert net.envelopes == 2
        assert net.delivered == 3


class TestIdleLinksDoNotLinger:
    """Adaptive batching waits the window only on a busy link."""

    def adaptive_net(self, kernel, **kwargs):
        net, _, _ = make_net(
            kernel, latency=FixedLatency(1.0), batch_window=8.0,
            batch_policy="adaptive", batch_max_msgs=8, **kwargs,
        )
        return net

    def test_lone_message_pays_latency_not_window(self, kernel):
        net = self.adaptive_net(kernel)
        net.send(ping())
        kernel.run(until=1.0)
        # An idle link flushes at the end of the instant: delivered at
        # ``latency``, not ``window + latency``.
        assert net.delivered == 1
        assert net.outbox.deadline_flushes == 1
        assert net.outbox.controller.observations == 1

    def test_same_instant_sends_share_one_envelope(self, kernel):
        net = self.adaptive_net(kernel)
        net.send(ping(kind="first"))
        net.send(ping(kind="second"))
        kernel.run()
        assert net.delivered == 2
        assert net.envelopes == 1
        assert kernel.now == 1.0

    def test_send_within_a_window_of_the_last_flush_waits(self, kernel):
        net = self.adaptive_net(kernel)
        net.send(ping())  # idle: flushed at t=0
        kernel.call_at(2.0, lambda: net.send(ping()))  # busy: waits 8
        kernel.run(until=9.5)
        assert net.delivered == 1
        kernel.run()
        assert net.delivered == 2
        assert kernel.now == 11.0

    def test_send_a_full_window_after_the_last_flush_is_idle(self, kernel):
        net = self.adaptive_net(kernel)
        net.send(ping())
        kernel.call_at(8.0, lambda: net.send(ping()))
        kernel.run()
        assert net.delivered == 2
        assert kernel.now == 9.0

    def test_links_are_idle_independently(self, kernel):
        net = self.adaptive_net(kernel)
        net.send(ping(dest="a"))
        kernel.call_at(2.0, lambda: net.send(ping(dest="b")))
        kernel.run()
        # central->b never flushed before: idle despite central->a.
        assert kernel.now == 3.0

    def test_static_lone_message_still_waits_the_window(self, kernel):
        net, _, _ = make_net(
            kernel, latency=FixedLatency(1.0), batch_window=8.0,
            batch_max_msgs=8,
        )
        net.send(ping())
        kernel.call_at(20.0, lambda: net.send(ping()))
        kernel.run(until=8.5)
        assert net.delivered == 0
        kernel.run()
        assert net.delivered == 2
        assert kernel.now == 29.0


class TestLoadSensedWindow:
    def test_burst_shrinks_window_quiescence_rewidens(self, kernel):
        net, a, _ = make_net(
            kernel, latency=FixedLatency(1.0), batch_window=8.0,
            batch_policy="adaptive",
        )
        ctl = net.outbox.controller
        assert ctl is not None and ctl.current == pytest.approx(8.0)

        # Burst: 12 messages spread over each window -> total queueing
        # wait far above the window; the controller backs off.
        def burst():
            for i in range(48):
                kernel.call_at(i * 0.5, lambda: net.send(ping()))
        burst()
        kernel.run()
        shrunk = ctl.current
        assert shrunk < 8.0
        assert ctl.shrinks > 0

        # Quiescence: a run of lone messages on an idle link, each
        # flushed at the end of its instant (wait 0), builds a relief
        # streak; the window re-widens to base.
        for i in range(12):
            kernel.call_at(kernel.now + 20.0 * (i + 1), lambda: net.send(ping()))
        kernel.run()
        assert ctl.current == pytest.approx(8.0)
        assert ctl.widens > 0

    def test_adaptive_needs_positive_window(self, kernel):
        net = Network(kernel, batch_policy="adaptive", batch_window=0.0)
        assert net.outbox.controller is None  # batching off: policy inert

    def test_unknown_policy_rejected(self, kernel):
        with pytest.raises(ValueError):
            Network(kernel, batch_policy="magic")


class TestCrashPurge:
    def test_sender_crash_purges_buffered_outbox(self, kernel):
        net, a, _ = make_net(
            kernel, latency=FixedLatency(1.0), batch_window=5.0,
        )
        net.send(ping(dest="central", sender="a", kind="reply"))
        node_a = net.node("a")
        kernel.call_at(1.0, node_a.crash)
        kernel.run()
        assert net.purged_batched == 1
        assert net.delivered == 0

    def test_crash_restart_within_window_does_not_resurrect(self, kernel):
        """Regression: the stale scheduled flush after crash+restart.

        The ``(key, generation)`` guard only protected against explicit
        flushes.  A sender that crashed *and restarted* inside one batch
        window left the generation untouched and itself healthy, so the
        scheduled deadline transmitted messages buffered before the
        crash -- volatile state that died with the node.
        """
        net, a, _ = make_net(
            kernel, latency=FixedLatency(1.0), batch_window=5.0,
        )
        net.send(ping(dest="central", sender="a", kind="reply"))
        node_a = net.node("a")
        kernel.call_at(1.0, node_a.crash)
        kernel.call_at(2.0, lambda: kernel.spawn(node_a.restart()))
        kernel.run()
        assert net.delivered == 0  # pre-crash buffer stayed dead
        assert net.purged_batched == 1
        # The restarted sender's *new* traffic flows normally.
        net.send(ping(dest="central", sender="a", kind="reply"))
        kernel.run()
        assert net.delivered == 1

    def test_dest_crash_reliable_path_retransmits_batch(self, kernel):
        """A batch bound for a crashed destination is retransmitted.

        The envelope flushes on its deadline while the destination is
        down; with reliable delivery the transmission is retried until
        the restart, then delivered exactly once (receiver-side dedup
        survives the crash).
        """
        net, a, _ = make_net(
            kernel, latency=FixedLatency(1.0), batch_window=3.0,
            reliable=True, retransmit_timeout=4.0,
        )
        net.send(ping())
        net.send(ping())
        node_a = net.node("a")
        kernel.call_at(1.0, node_a.crash)  # down when the flush fires
        kernel.call_at(20.0, lambda: kernel.spawn(node_a.restart()))
        kernel.run()
        assert net.delivered == 2
        assert net.retransmissions >= 1
        assert net.duplicates_suppressed == 0

    def test_purge_only_touches_the_crashed_senders_outboxes(self, kernel):
        net, a, b = make_net(
            kernel, latency=FixedLatency(1.0), batch_window=5.0,
        )
        net.send(ping(dest="central", sender="a", kind="reply"))
        net.send(ping(dest="b"))
        net.node("a").crash()
        kernel.run()
        assert net.purged_batched == 1  # a's outbox died
        assert net.delivered == 1  # central -> b flushed normally
