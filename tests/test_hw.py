"""Tests for the FPGA area model (Table 1 / Fig. 12)."""

import pytest

from repro.hw import (PAPER_QUARC_TABLE1, PAPER_SPIDERGON_TOTAL_32,
                      comparator_cost, decoder_cost, fifo_cost, fsm_cost,
                      mux_cost, quarc_switch_area, register_cost,
                      spidergon_switch_area, table_cost)
from repro.hw.primitives import SliceEstimate
from repro.hw.quarc_switch import quarc_switch_structural
from repro.hw.report import (cost_sweep, quarc_calibration,
                             spidergon_calibration,
                             spidergon_prediction_error, table1)


class TestPrimitives:
    def test_slice_packing(self):
        assert SliceEstimate(luts=4, ffs=2).slices == 2
        assert SliceEstimate(luts=1, ffs=5).slices == 3
        assert SliceEstimate(luts=0, ffs=0).slices == 0

    def test_addition(self):
        a = SliceEstimate(2, 3) + SliceEstimate(4, 1)
        assert (a.luts, a.ffs) == (6, 4)

    def test_scaled(self):
        assert SliceEstimate(2, 3).scaled(3).ffs == 9
        with pytest.raises(ValueError):
            SliceEstimate(1, 1).scaled(-1)

    def test_register_pure_ffs(self):
        est = register_cost(34)
        assert est.ffs == 34 and est.luts == 0

    def test_fifo_scales_with_width_and_depth(self):
        base = fifo_cost(34, 4).slices
        assert fifo_cost(66, 4).slices > base
        assert fifo_cost(34, 8).slices > base

    def test_mux_single_input_free(self):
        assert mux_cost(34, 1).slices == 0

    def test_mux_grows_with_inputs(self):
        assert mux_cost(34, 4).luts > mux_cost(34, 2).luts

    def test_fsm_state_bits(self):
        assert fsm_cost(4).ffs == 2
        assert fsm_cost(5).ffs == 3

    def test_validation(self):
        for bad_call in (lambda: fifo_cost(0, 4), lambda: fifo_cost(8, 0),
                         lambda: mux_cost(0, 2), lambda: fsm_cost(1),
                         lambda: comparator_cost(0),
                         lambda: decoder_cost(0, 1),
                         lambda: table_cost(0, 4),
                         lambda: register_cost(-1)):
            with pytest.raises(ValueError):
                bad_call()


class TestTable1:
    def test_reproduces_paper_exactly_at_32_bits(self):
        t = table1(32)
        for module, slices in PAPER_QUARC_TABLE1.items():
            assert t[module] == slices, module
        assert t["total"] == 1453

    def test_input_buffers_dominate(self):
        """The paper's argument for omitting output buffers: storage is
        the expensive part (735 of 1453 slices)."""
        t = table1(32)
        assert t["input_buffers"] > 0.4 * t["total"]

    def test_crossbar_and_fcu_are_minimal(self):
        """'the amount of area occupied by the crossbar and FCU are very
        minimal' (Sec. 3.1)."""
        t = table1(32)
        assert t["crossbar_mux"] + t["fcu"] < 0.2 * t["total"]


class TestSpidergonPrediction:
    def test_predicted_total_close_to_paper(self):
        """The Spidergon total is predicted (not fitted); must land near
        the paper's 1,700 slices."""
        assert abs(spidergon_prediction_error()) < 0.15

    def test_quarc_smaller_at_32_bits(self):
        q = quarc_switch_area(32, calibration=quarc_calibration())
        s = spidergon_switch_area(32, calibration=spidergon_calibration())
        assert q["total"] < s["total"]
        assert q["total"] < PAPER_SPIDERGON_TOTAL_32


class TestFig12:
    def test_quarc_cheaper_at_every_width(self):
        for row in cost_sweep([16, 32, 64]):
            assert row["quarc_slices"] < row["spidergon_slices"], row

    def test_sweep_anchor_is_table1_total(self):
        """Fig. 12's 32-bit Quarc bar is Table 1's 1,453 slices."""
        assert cost_sweep([32])[0]["quarc_slices"] == 1453

    def test_area_monotone_in_width(self):
        rows = cost_sweep([16, 32, 64])
        q = [r["quarc_slices"] for r in rows]
        s = [r["spidergon_slices"] for r in rows]
        assert q == sorted(q) and s == sorted(s)

    def test_width_scaling_is_subproportional(self):
        """Doubling the datapath less than doubles area (control logic is
        width-independent) -- the qualitative shape of Fig. 12."""
        rows = {r["width_bits"]: r["quarc_slices"]
                for r in cost_sweep([16, 32, 64])}
        assert rows[32] < 2 * rows[16]
        assert rows[64] < 2 * rows[32]

    def test_buffer_depth_increases_area(self):
        shallow = quarc_switch_area(32, buffer_depth=2,
                                    calibration=quarc_calibration())
        deep = quarc_switch_area(32, buffer_depth=8,
                                 calibration=quarc_calibration())
        assert deep["input_buffers"] > shallow["input_buffers"]
        assert deep["total"] > shallow["total"]


class TestStructuralSanity:
    def test_all_modules_present(self):
        structural = quarc_switch_structural(32)
        assert set(structural) == set(PAPER_QUARC_TABLE1)

    def test_validation(self):
        with pytest.raises(ValueError):
            quarc_switch_structural(4)
        with pytest.raises(ValueError):
            quarc_switch_structural(32, buffer_depth=0)
        with pytest.raises(ValueError):
            spidergon_switch_area(4)
