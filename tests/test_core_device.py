"""Tests for the StreamPIM device: event-mode execution and word store."""

import numpy as np
import pytest

from repro.core.device import (
    StreamPIMConfig,
    StreamPIMDevice,
    WordStore,
    _spans_to_breakdown,
    _Span,
)
from repro.core.scheduler import SchedulerPolicy
from repro.isa.trace import VPCTrace
from repro.isa.vpc import VPC


class TestWordStore:
    def test_roundtrip(self):
        store = WordStore()
        store.write(100, [1, 2, 3])
        assert list(store.read(100, 3)) == [1, 2, 3]

    def test_unwritten_words_read_zero(self):
        assert list(WordStore().read(0, 4)) == [0, 0, 0, 0]

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            WordStore().read(0, 0)

    def test_len_counts_written_words(self):
        store = WordStore()
        store.write(0, [1, 2])
        store.write(1, [9])  # overwrite
        assert len(store) == 2

    def test_roundtrip_across_page_boundaries(self):
        store = WordStore()
        page = WordStore.PAGE_WORDS
        values = np.arange(1, 2 * page + 7)
        store.write(page - 3, values)  # spans four pages
        assert np.array_equal(store.read(page - 3, len(values)), values)
        assert list(store.read(page - 5, 4)) == [0, 0, 1, 2]
        last = 2 * page + 6
        assert list(store.read(3 * page + 1, 3)) == [last - 1, last, 0]

    def test_unwritten_words_of_a_written_page_read_zero(self):
        store = WordStore()
        page = WordStore.PAGE_WORDS
        store.write(page + 10, [7])
        assert list(store.read(page + 8, 4)) == [0, 0, 7, 0]
        assert list(store.read(page - 2, 4)) == [0, 0, 0, 0]
        assert list(store.read(5 * page, 2)) == [0, 0]

    def test_len_after_overwrites_across_pages(self):
        store = WordStore()
        page = WordStore.PAGE_WORDS
        store.write(page - 2, [1, 2, 3, 4])  # two pages, four words
        store.write(page - 1, [5, 6])  # overwrites two of them
        store.write(page + 2, [0])  # a written zero still counts
        assert len(store) == 5
        store.write(page - 2, [9] * 5)
        assert len(store) == 5

    def test_snapshot_lists_written_words(self):
        store = WordStore()
        page = WordStore.PAGE_WORDS
        store.write(page - 1, [4, 0, 6])
        store.write(7, [1])
        assert store.snapshot() == {
            7: 1, page - 1: 4, page: 0, page + 1: 6
        }
        assert WordStore().snapshot() == {}


class TestSpansToBreakdown:
    def test_disjoint_spans(self):
        spans = [_Span(0, 10, "rw"), _Span(10, 30, "pim")]
        b = _spans_to_breakdown(spans)
        assert b.read_ns + b.write_ns == pytest.approx(10.0)
        assert b.process_ns == pytest.approx(20.0)
        assert b.overlapped_ns == 0.0

    def test_overlap_classified(self):
        spans = [_Span(0, 10, "rw"), _Span(5, 15, "pim")]
        b = _spans_to_breakdown(spans)
        assert b.overlapped_ns == pytest.approx(5.0)
        assert b.process_ns == pytest.approx(5.0)

    def test_empty(self):
        assert _spans_to_breakdown([]).total_ns == 0.0


class TestEventMode:
    def _subarray_base(self, device, bank, sub):
        return device.address_map.subarray_base(bank, sub)

    def test_functional_dot_product(self, small_device):
        device = small_device
        base = self._subarray_base(device, 0, 0)
        device.store.write(base, [1, 2, 3, 4])
        device.store.write(base + 10, [5, 6, 7, 8])
        trace = VPCTrace([VPC.mul(base, base + 10, base + 20, 4)])
        stats = device.execute_trace(trace)
        assert device.store.read(base + 20, 1)[0] == 70
        assert stats.time_ns > 0

    def test_functional_tran_same_subarray(self, small_device):
        device = small_device
        base = self._subarray_base(device, 0, 0)
        device.store.write(base, [9, 9])
        device.execute_trace(VPCTrace([VPC.tran(base, base + 5, 2)]))
        assert list(device.store.read(base + 5, 2)) == [9, 9]

    def test_functional_cross_subarray_tran(self, small_device):
        device = small_device
        src = self._subarray_base(device, 0, 0)
        dst = self._subarray_base(device, 0, 1)
        device.store.write(src, [4, 5, 6])
        stats = device.execute_trace(VPCTrace([VPC.tran(src, dst, 3)]))
        assert list(device.store.read(dst, 3)) == [4, 5, 6]
        # Cross-subarray movement is read/write class.
        assert stats.energy.read_pj > 0
        assert stats.energy.write_pj > 0

    def test_smul_and_add(self, small_device):
        device = small_device
        base = self._subarray_base(device, 0, 0)
        device.store.write(base, [3])
        device.store.write(base + 1, [1, 2, 3])
        trace = VPCTrace(
            [
                VPC.smul(base, base + 1, base + 10, 3),
                VPC.add(base + 10, base + 1, base + 20, 3),
            ]
        )
        device.execute_trace(trace)
        assert list(device.store.read(base + 10, 3)) == [3, 6, 9]
        assert list(device.store.read(base + 20, 3)) == [4, 8, 12]

    def test_counters(self, small_device):
        base = small_device.address_map.subarray_base(0, 0)
        trace = VPCTrace(
            [VPC.mul(base, base + 8, base + 16, 4), VPC.tran(base, base + 30, 2)]
        )
        stats = small_device.execute_trace(trace)
        assert stats.counters["pim_vpcs"] == 1
        assert stats.counters["move_vpcs"] == 1

    def test_independent_subarrays_overlap(self, small_device):
        """Two VPCs on different subarrays run concurrently."""
        device = small_device
        a = self._subarray_base(device, 0, 0)
        b = self._subarray_base(device, 0, 1)
        one = device.execute_trace(VPCTrace([VPC.mul(a, a + 8, a + 16, 16)]))
        both_trace = VPCTrace(
            [
                VPC.mul(a, a + 8, a + 16, 16),
                VPC.mul(b, b + 8, b + 16, 16),
            ]
        )
        fresh = StreamPIMDevice(device.config)
        both = fresh.execute_trace(both_trace)
        # The second VPC overlaps the first almost entirely.
        assert both.time_ns < 1.5 * one.time_ns

    def test_same_subarray_serialises(self, small_device):
        device = small_device
        a = self._subarray_base(device, 0, 0)
        one = device.execute_trace(VPCTrace([VPC.mul(a, a + 8, a + 16, 16)]))
        fresh = StreamPIMDevice(device.config)
        two = fresh.execute_trace(
            VPCTrace(
                [
                    VPC.mul(a, a + 8, a + 16, 16),
                    VPC.mul(a, a + 8, a + 24, 16),
                ]
            )
        )
        assert two.time_ns > 1.5 * one.time_ns

    def test_remote_operand_charged_as_rw(self, small_device):
        device = small_device
        a = self._subarray_base(device, 0, 0)
        b = self._subarray_base(device, 0, 1)
        stats = device.execute_trace(VPCTrace([VPC.mul(a, b, a + 16, 8)]))
        assert stats.energy.read_pj > 0
        assert stats.energy.write_pj > 0

    def test_remote_destination_copy_back(self, small_device):
        device = small_device
        a = self._subarray_base(device, 0, 0)
        b = self._subarray_base(device, 0, 1)
        device.store.write(a, [2, 2])
        device.store.write(a + 4, [3, 3])
        device.execute_trace(VPCTrace([VPC.add(a, a + 4, b, 2)]))
        assert list(device.store.read(b, 2)) == [5, 5]

    def test_functional_disabled_skips_store(self, small_device):
        device = small_device
        a = self._subarray_base(device, 0, 0)
        device.store.write(a, [1])
        device.execute_trace(
            VPCTrace([VPC.tran(a, a + 3, 1)]), functional=False
        )
        assert device.store.read(a + 3, 1)[0] == 0


class TestConfig:
    def test_with_policy_preserves_other_fields(self):
        config = StreamPIMConfig()
        other = config.with_policy(SchedulerPolicy.BASE)
        assert other.scheduler_policy is SchedulerPolicy.BASE
        assert other.geometry is config.geometry
        assert other.bus is config.bus

    def test_device_exposes_pim_subarrays(self, small_device):
        geo = small_device.config.geometry
        assert small_device.pim_subarrays == geo.pim_subarrays
