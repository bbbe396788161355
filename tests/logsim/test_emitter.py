"""Tests for the paced live-log emitter (``repro.logsim.emitter``)."""

import pytest

from repro.logsim.emitter import (
    EmitStats,
    file_sink,
    parse_time_prefix,
    stream_log,
)


class FakeTime:
    """Deterministic clock + sleep pair: sleeping advances the clock."""

    def __init__(self):
        self.now = 1000.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.sleeps.append(seconds)
        self.now += seconds


def collect():
    chunks = []
    return chunks, chunks.append


LOG = (
    b"10.0 c0-0c0s0n0 alpha one\n"
    b"12.0 c0-0c0s0n1 bravo two\n"
    b"\x00\xffgarbled header line\n"
    b"15.5 c0-0c0s0n0 charlie three\n"
)


class TestParseTimePrefix:
    def test_parses_leading_float(self):
        assert parse_time_prefix(b"12.5 node msg") == 12.5

    def test_parses_to_line_iso_stamp(self):
        from repro.core.events import LogEvent

        record = LogEvent(1234.567891, "c0-0c0s0n0", "msg").to_line().encode()
        assert record[:4] == b"1970"  # ISO-8601, not a bare float
        assert parse_time_prefix(record) == pytest.approx(1234.567891, abs=1e-6)

    def test_rejects_garbage(self):
        assert parse_time_prefix(b"\x00\xff nope") is None
        assert parse_time_prefix(b"nospacefield") is None
        assert parse_time_prefix(b"abc node msg") is None


class TestUnpacedBlast:
    def test_ships_every_record_verbatim(self):
        chunks, sink = collect()
        fake = FakeTime()
        stats = stream_log(
            LOG, sink, pace=0.0, sleep=fake.sleep, clock=fake.clock)
        assert b"".join(chunks) == LOG  # binary-safe, corruption included
        assert stats.lines == 4
        assert stats.bytes_sent == len(LOG)
        assert fake.sleeps == []

    def test_chunk_bounds_each_flush(self):
        chunks, sink = collect()
        stats = stream_log(LOG, sink, chunk=1)
        assert len(chunks) == 4
        assert stats.flushes == 4

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            stream_log(LOG, lambda b: None, pace=-1.0)
        with pytest.raises(ValueError):
            stream_log(LOG, lambda b: None, chunk=0)


class TestPacing:
    def test_waits_follow_event_time(self):
        chunks, sink = collect()
        fake = FakeTime()
        # pace=2 → half of event time: gaps of 2.0 and 3.5 event-seconds
        # become 1.0 and 1.75 wall-seconds.
        stats = stream_log(
            LOG, sink, pace=2.0, sleep=fake.sleep, clock=fake.clock)
        assert fake.sleeps == pytest.approx([1.0, 1.75])
        assert stats.sleeps == 2
        assert stats.slept_seconds == pytest.approx(2.75)
        assert b"".join(chunks) == LOG

    def test_corrupted_record_inherits_schedule(self):
        chunks, sink = collect()
        fake = FakeTime()
        stats = stream_log(
            LOG, sink, pace=1.0, sleep=fake.sleep, clock=fake.clock)
        # The garbled record neither sleeps on its own nor reorders:
        # one wait for 12.0, none for the garbled line, one for 15.5.
        assert fake.sleeps == pytest.approx([2.0, 3.5])
        assert stats.unparsed_times == 1
        assert b"".join(chunks) == LOG

    def test_pacing_flushes_before_sleeping(self):
        sent_before_sleep = []
        chunks = []

        class Fake(FakeTime):
            def sleep(self, seconds):
                sent_before_sleep.append(b"".join(chunks))
                super().sleep(seconds)

        fake = Fake()
        stream_log(
            LOG, chunks.append, pace=1.0, chunk=1000,
            sleep=fake.sleep, clock=fake.clock)
        # Everything due before each wait was already on the wire.
        assert sent_before_sleep[0].count(b"\n") == 1
        assert sent_before_sleep[1].count(b"\n") == 3

    def test_backwards_timestamp_never_stalls(self):
        log = b"10.0 n a\n5.0 n b\n11.0 n c\n"
        fake = FakeTime()
        chunks, sink = collect()
        stream_log(log, sink, pace=1.0, sleep=fake.sleep, clock=fake.clock)
        # 5.0 is behind the schedule: emitted immediately, order kept.
        assert fake.sleeps == pytest.approx([1.0])
        assert b"".join(chunks) == log

    def test_micro_waits_are_skipped_not_accumulated_away(self):
        log = b"".join(b"%.3f n m\n" % (10.0 + i * 0.001) for i in range(100))
        fake = FakeTime()
        chunks, sink = collect()
        stats = stream_log(
            log, sink, pace=1.0, sleep=fake.sleep, clock=fake.clock,
            min_sleep=0.05)
        # 99 ms of schedule in >= 50 ms steps: 1 coalesced sleep, and
        # the absolute schedule means no drift was lost.
        assert stats.sleeps == 1
        assert sum(fake.sleeps) == pytest.approx(0.05, abs=0.05)


class TestSinks:
    def test_file_sink_writes_and_flushes(self, tmp_path):
        target = tmp_path / "out.log"
        with open(target, "wb") as fh:
            stream_log(LOG, file_sink(fh))
        assert target.read_bytes() == LOG

    def test_stats_as_dict_round_trips(self):
        stats = EmitStats(lines=4, bytes_sent=10)
        payload = stats.as_dict()
        assert payload["lines"] == 4
        assert payload["bytes_sent"] == 10
