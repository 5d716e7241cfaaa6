"""Tests for the fault-injection harness itself (injector + mutators)."""

import pytest

from repro.faults import (
    NULL_INJECTOR,
    FaultInjector,
    InjectedCrash,
    active_injector,
    bit_flip,
    tear_tail,
    truncate_at,
)
from repro.obs import MetricsRegistry


class TestCrashpoints:
    def test_unarmed_point_is_silent(self):
        injector = FaultInjector()
        injector.crashpoint("anywhere")
        assert injector.fired == []
        assert injector.visited == ["anywhere"]

    def test_armed_point_raises(self):
        injector = FaultInjector()
        with injector.arm("save.tmp_written"):
            with pytest.raises(InjectedCrash) as excinfo:
                injector.crashpoint("save.tmp_written")
        assert excinfo.value.point == "save.tmp_written"
        assert injector.fired == ["save.tmp_written"]

    def test_arm_scope_disarms_on_exit(self):
        injector = FaultInjector()
        with injector.arm("p"):
            pass
        injector.crashpoint("p")  # disarmed: no raise

    def test_fires_on_nth_hit_only(self):
        injector = FaultInjector()
        injector.arm_forever("p", hits=3)
        injector.crashpoint("p")
        injector.crashpoint("p")
        with pytest.raises(InjectedCrash):
            injector.crashpoint("p")
        injector.crashpoint("p")  # times=1 exhausted

    def test_times_bounds_repeat_fires(self):
        injector = FaultInjector()
        injector.arm_forever("p", times=2)
        for _ in range(2):
            with pytest.raises(InjectedCrash):
                injector.crashpoint("p")
        injector.crashpoint("p")

    def test_is_armed_previews_without_visiting(self):
        injector = FaultInjector()
        assert not injector.is_armed("p")
        injector.arm_forever("p")
        assert injector.is_armed("p")
        assert injector.visited == []

    def test_hooks_run_on_every_visit(self):
        injector = FaultInjector()
        seen = []
        injector.on("p", seen.append)
        injector.crashpoint("p")
        injector.crashpoint("p")
        assert seen == ["p", "p"]

    def test_fired_faults_count_into_obs(self):
        registry = MetricsRegistry()
        injector = FaultInjector(obs=registry)
        injector.arm_forever("p")
        with pytest.raises(InjectedCrash):
            injector.crashpoint("p")
        assert registry.value("faults_injected") == 1

    def test_reset_clears_everything(self):
        injector = FaultInjector()
        injector.arm_forever("p")
        injector.on("p", lambda _: None)
        injector.reset()
        injector.crashpoint("p")
        assert injector.fired == []

    def test_invalid_plan_rejected(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.arm_forever("p", hits=0)


class TestNullInjector:
    def test_null_injector_never_fires(self):
        NULL_INJECTOR.crashpoint("anything")
        assert not NULL_INJECTOR.is_armed("anything")

    def test_null_injector_cannot_be_armed(self):
        with pytest.raises(ValueError):
            NULL_INJECTOR.arm_forever("p")

    def test_active_injector_normalises_none(self):
        assert active_injector(None) is NULL_INJECTOR
        real = FaultInjector()
        assert active_injector(real) is real


class TestMutators:
    def test_tear_tail_keeps_prefix_of_last_line(self, tmp_path):
        path = tmp_path / "log"
        path.write_text("first line\nsecond line\n")
        tear_tail(path, keep_fraction=0.5)
        data = path.read_text()
        assert data.startswith("first line\n")
        assert not data.endswith("\n")
        assert "second line" not in data

    def test_tear_tail_single_line(self, tmp_path):
        path = tmp_path / "log"
        path.write_text("only line here\n")
        size = tear_tail(path, keep_fraction=0.5)
        assert size == len("only line here") // 2
        assert path.read_text() == "only li"

    def test_tear_tail_empty_file_untouched(self, tmp_path):
        path = tmp_path / "log"
        path.write_text("")
        assert tear_tail(path) == 0
        assert path.read_text() == ""

    def test_bit_flip_changes_exactly_one_bit(self, tmp_path):
        path = tmp_path / "data"
        original = b"hello durable world"
        path.write_bytes(original)
        offset = bit_flip(path, offset=4, bit=1)
        mutated = path.read_bytes()
        assert offset == 4
        assert len(mutated) == len(original)
        diffs = [
            (i, a ^ b)
            for i, (a, b) in enumerate(zip(original, mutated))
            if a != b
        ]
        assert diffs == [(4, 1 << 1)]
        # Deterministic: flipping again restores the original.
        bit_flip(path, offset=4, bit=1)
        assert path.read_bytes() == original

    def test_bit_flip_defaults_to_middle(self, tmp_path):
        path = tmp_path / "data"
        path.write_bytes(b"0123456789")
        assert bit_flip(path) == 5

    def test_bit_flip_rejects_empty_and_bad_offsets(self, tmp_path):
        path = tmp_path / "data"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            bit_flip(path)
        path.write_bytes(b"xy")
        with pytest.raises(ValueError):
            bit_flip(path, offset=7)

    def test_truncate_at(self, tmp_path):
        path = tmp_path / "data"
        path.write_bytes(b"0123456789")
        truncate_at(path, 4)
        assert path.read_bytes() == b"0123"
