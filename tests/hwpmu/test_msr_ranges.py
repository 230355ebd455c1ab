"""Ranged MSR readers answer exactly like one handler per slot.

The LBR and LCR expose their ring slots through one
:meth:`MsrFile.register_range_reader` call per register bank.  These
tests rebuild the per-slot registration the units used before and
compare ``rdmsr`` of every MSR number in the LBR/LCR window, including
the capacities at which the LCR's PC and state banks overlap.
"""

import pytest

from repro.cache.mesi import MesiState
from repro.hwpmu import msr as msrdefs
from repro.hwpmu.counters import UNIT_MASK
from repro.hwpmu.lbr import DEBUGCTL_ENABLE_VALUE
from repro.hwpmu.lcr import AccessType, encode_lcr_select
from repro.hwpmu.msr import MsrAccessError, MsrFile
from repro.isa.instructions import BranchKind, Ring
from repro.machine.core import Core

_WINDOW = range(0x680, 0x7D0 + 1)


def _per_slot_msrs(lbr, lcr):
    """The register file as per-slot registration built it."""
    msrs = MsrFile()
    msrs.register_read_handler(
        msrdefs.IA32_DEBUGCTL,
        lambda: DEBUGCTL_ENABLE_VALUE if lbr.enabled else 0)
    msrs.register_read_handler(msrdefs.LBR_SELECT, lambda: lbr.select_mask)

    def lbr_slot(slot, field):
        def read():
            entry = lbr.entry_latest(slot + 1)
            return 0 if entry is None else getattr(entry, field)
        return read

    for slot in range(lbr.capacity):
        msrs.register_read_handler(msrdefs.MSR_LASTBRANCH_FROM_BASE + slot,
                                   lbr_slot(slot, "from_address"))
        msrs.register_read_handler(msrdefs.MSR_LASTBRANCH_TO_BASE + slot,
                                   lbr_slot(slot, "to_address"))
    msrs.register_read_handler(msrdefs.LCR_SELECT,
                               lambda: encode_lcr_select(lcr.config))

    def lcr_pc(slot):
        def read():
            entry = lcr.entry_latest(slot + 1)
            return 0 if entry is None else entry.pc
        return read

    def lcr_state(slot):
        def read():
            entry = lcr.entry_latest(slot + 1)
            if entry is None:
                return 0
            return (entry.access.event_code << 8) | UNIT_MASK[entry.state]
        return read

    for slot in range(lcr.capacity):
        msrs.register_read_handler(msrdefs.MSR_LASTCOHERENCE_PC_BASE + slot,
                                   lcr_pc(slot))
        msrs.register_read_handler(
            msrdefs.MSR_LASTCOHERENCE_STATE_BASE + slot, lcr_state(slot))
    return msrs


def _read(msrs, msr):
    try:
        return msrs.rdmsr(msr)
    except MsrAccessError:
        return "unimplemented"


def _filled_core(capacity, fill):
    core = Core(0, lbr_capacity=capacity, lcr_capacity=capacity)
    core.lbr.enable()
    core.lcr.enable(pollute=False)
    states = (MesiState.INVALID, MesiState.EXCLUSIVE)
    for n in range(fill):
        core.lbr.record(0x1000 + 8 * n, 0x5000 + 8 * n,
                        BranchKind.CONDITIONAL, Ring.USER)
        core.lcr.record(0x2000 + 4 * n, states[n % 2], AccessType.LOAD,
                        Ring.USER)
    return core


@pytest.mark.parametrize("capacity", [4, 16, 32, 40])
@pytest.mark.parametrize("fill", ["empty", "partial", "wrapped"])
def test_ranged_readers_match_per_slot_registration(capacity, fill):
    entries = {"empty": 0, "partial": capacity // 2 + 1,
               "wrapped": capacity + 3}[fill]
    core = _filled_core(capacity, entries)
    legacy = _per_slot_msrs(core.lbr, core.lcr)
    assert [_read(core.msrs, msr) for msr in _WINDOW] == \
        [_read(legacy, msr) for msr in _WINDOW]


def test_lcr_pc_bank_wins_where_it_overlaps_the_state_bank():
    # At capacity 40 the PC slots 32..39 sit on STATE_BASE..STATE_BASE+7.
    core = _filled_core(40, 40)
    newest_pc = core.lcr.entry_latest(33).pc
    assert core.msrs.rdmsr(msrdefs.MSR_LASTCOHERENCE_STATE_BASE) \
        == newest_pc
    assert core.msrs.rdmsr(msrdefs.MSR_LASTCOHERENCE_STATE_BASE + 8) \
        == (AccessType.LOAD.event_code << 8) \
        | UNIT_MASK[core.lcr.entry_latest(9).state]
    # LCR_SELECT sits one past the last state slot and keeps its reader.
    assert core.msrs.rdmsr(msrdefs.LCR_SELECT) \
        == encode_lcr_select(core.lcr.config)


def test_latest_registration_wins():
    msrs = MsrFile()
    msrs.register_read_handler(0x10, lambda: "point")
    msrs.register_range_reader(0x0, 0x20, lambda slot: ("old", slot))
    msrs.register_range_reader(0x18, 4, lambda slot: ("new", slot))
    msrs.register_read_handler(0x19, lambda: "late point")
    assert msrs.rdmsr(0x10) == ("old", 0x10)
    assert msrs.rdmsr(0x18) == ("new", 0)
    assert msrs.rdmsr(0x19) == "late point"
    assert msrs.rdmsr(0x1C) == ("old", 0x1C)
    with pytest.raises(MsrAccessError):
        msrs.rdmsr(0x20)
