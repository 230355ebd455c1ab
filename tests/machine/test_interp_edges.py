"""Edge-case tests for the interpreter and machine lifecycle."""

import pytest

from repro.isa.asm import Assembler
from repro.isa.instructions import BinaryOperator, Opcode
from repro.isa.layout import CODE_BASE, MAX_THREADS
from repro.machine.backends import BACKEND_NAMES
from repro.machine.cpu import Machine, MachineConfig
from repro.machine.faults import FaultKind


def build_and_run(builder, args=(), max_steps=None):
    assembler = Assembler()
    builder(assembler)
    machine = Machine(assembler.link())
    machine.load(args=args)
    return machine, machine.run(max_steps=max_steps)


def test_indirect_call_through_register():
    def body(a):
        a.function("main")
        a.op(Opcode.LI, rd=7, imm=0)         # patched below
        a.op(Opcode.CALLR, rs=7)
        a.op(Opcode.OUT, rs=0)
        a.op(Opcode.HALT, imm=0)
        a.function("callee")
        a.op(Opcode.LI, rd=0, imm=42)
        a.op(Opcode.RET)

    assembler = Assembler()
    body(assembler)
    program = assembler.link()
    entry = program.function_named("callee").entry
    program.instructions[0].imm = entry
    machine = Machine(program)
    machine.load()
    status = machine.run()
    assert status.output == (42,)


def test_indirect_call_to_garbage_faults():
    def body(a):
        a.function("main")
        a.op(Opcode.LI, rd=7, imm=0xDEAD00)
        a.op(Opcode.CALLR, rs=7)
        a.op(Opcode.HALT, imm=0)
    _machine, status = build_and_run(body)
    assert status.fault.kind is FaultKind.SEGMENTATION_FAULT


def test_return_to_corrupted_address_faults():
    """A smashed return address (classic stack corruption) faults."""
    def body(a):
        a.function("main")
        a.op(Opcode.CALL, target="victim")
        a.op(Opcode.HALT, imm=0)
        a.function("victim")
        # Overwrite the return address on the stack with garbage.
        a.op(Opcode.LI, rd=7, imm=0xBAD)
        a.op(Opcode.STORE, rd=15, rs=7)      # mem[sp] = 0xBAD
        a.op(Opcode.RET)
    _machine, status = build_and_run(body)
    assert status.fault.kind is FaultKind.SEGMENTATION_FAULT
    assert "return" in status.fault.message


def test_spawn_copies_argument_registers():
    def body(a):
        a.global_word("g")
        a.function("main")
        a.op(Opcode.LI, rd=1, imm=5)
        a.op(Opcode.LI, rd=2, imm=7)
        a.op(Opcode.SPAWN, rd=7, target="worker")
        a.op(Opcode.LI, rd=1, imm=99)        # clobber after spawn
        a.op(Opcode.JOIN, rs=7)
        a.op(Opcode.HALT, imm=0)
        a.function("worker")
        a.op(Opcode.BINOP, operator=BinaryOperator.MUL, rd=9, rs=1, rs2=2)
        a.op(Opcode.LI, rd=10, imm=0x100000)
        a.op(Opcode.STORE, rd=10, rs=9)
        a.op(Opcode.RET)
    machine, _status = build_and_run(body)
    assert machine.get_global("g") == 35


def test_join_of_unknown_tid_faults():
    def body(a):
        a.function("main")
        a.op(Opcode.LI, rd=7, imm=42)
        a.op(Opcode.JOIN, rs=7)
        a.op(Opcode.HALT, imm=0)
    _machine, status = build_and_run(body)
    assert status.fault.kind is FaultKind.ILLEGAL_INSTRUCTION


def test_join_of_finished_thread_is_immediate():
    def body(a):
        a.function("main")
        a.op(Opcode.SPAWN, rd=7, target="worker")
        a.op(Opcode.LI, rd=8, imm=500)
        a.label("spin")
        a.op(Opcode.LI, rd=9, imm=1)
        a.op(Opcode.BINOP, operator=BinaryOperator.SUB, rd=8, rs=8, rs2=9)
        a.op(Opcode.JNZ, rs=8, target="spin")
        a.op(Opcode.JOIN, rs=7)              # worker exited long ago
        a.op(Opcode.HALT, imm=3)
        a.function("worker")
        a.op(Opcode.RET)
    _machine, status = build_and_run(body)
    assert status.exit_code == 3


def test_unlock_by_non_owner_is_noop():
    def body(a):
        a.global_word("m")
        a.function("main")
        a.op(Opcode.LI, rd=7, imm=0x100000)
        a.op(Opcode.UNLOCK, rs=7)            # never locked
        a.op(Opcode.LOCK, rs=7)              # still acquirable
        a.op(Opcode.HALT, imm=0)
    _machine, status = build_and_run(body)
    assert status.exit_code == 0


def test_halt_uses_rv_when_no_immediate():
    def body(a):
        a.function("main")
        a.op(Opcode.LI, rd=0, imm=17)
        a.op(Opcode.HALT)
    _machine, status = build_and_run(body)
    assert status.exit_code == 17


def test_outs_register_variant():
    def body(a):
        a.string("zero")
        a.string("one")
        a.function("main")
        a.op(Opcode.LI, rd=7, imm=1)
        a.op(Opcode.OUTS, rs=7)
        a.op(Opcode.HALT, imm=0)
    _machine, status = build_and_run(body)
    assert status.output == ("one",)


def test_process_exit_stops_all_threads():
    def body(a):
        a.function("main")
        a.op(Opcode.SPAWN, rd=7, target="forever")
        a.op(Opcode.HALT, imm=9)             # exit() kills the spinner
        a.function("forever")
        a.label("loop")
        a.op(Opcode.JMP, target="loop")
    machine, status = build_and_run(body, max_steps=100_000)
    assert status.exit_code == 9
    assert status.fault is None
    assert all(not t.runnable for t in machine.threads)


def test_thread_limit_enforced():
    def body(a):
        a.function("main")
        a.op(Opcode.LI, rd=8, imm=MAX_THREADS + 4)
        a.label("loop")
        a.op(Opcode.SPAWN, rd=7, target="worker")
        a.op(Opcode.LI, rd=9, imm=1)
        a.op(Opcode.BINOP, operator=BinaryOperator.SUB, rd=8, rs=8, rs2=9)
        a.op(Opcode.JNZ, rs=8, target="loop")
        a.op(Opcode.HALT, imm=0)
        a.function("worker")
        a.op(Opcode.RET)
    _machine, status = build_and_run(body)
    assert status.fault is not None
    assert status.fault.kind is FaultKind.ILLEGAL_INSTRUCTION


def test_double_load_rejected():
    def body(a):
        a.function("main")
        a.op(Opcode.HALT, imm=0)
    assembler = Assembler()
    body(assembler)
    machine = Machine(assembler.link())
    machine.load()
    with pytest.raises(RuntimeError):
        machine.load()


def test_pc_escape_faults():
    def body(a):
        a.function("main")
        a.op(Opcode.NOP)     # falls off the end of the code region
    _machine, status = build_and_run(body)
    assert status.fault.kind is FaultKind.ILLEGAL_INSTRUCTION


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_jump_outside_code_faults(backend):
    """A branch out of the code region faults at its target, on every
    backend (the threaded one compiles addresses on first reach and
    must still refuse one that holds no instruction)."""
    outside = CODE_BASE - 0x100
    assembler = Assembler()
    assembler.function("main")
    assembler.op(Opcode.LI, rd=1, imm=7)
    assembler.op(Opcode.JMP, target=outside)
    assembler.op(Opcode.HALT, imm=0)
    machine = Machine(assembler.link(),
                      config=MachineConfig(backend=backend))
    machine.load()
    status = machine.run()
    assert status.fault.kind is FaultKind.ILLEGAL_INSTRUCTION
    assert status.fault.pc == outside
    assert status.fault.message == "pc outside code"
    assert status.retired == 2
