"""Executable program container and debug information.

A :class:`Program` is the output of the linker: instructions with assigned
addresses, a string table, a global-variable layout, a function table, and
:class:`DebugInfo` mapping machine branch addresses back to source-level
branches.  The debug info is what lets developers (and the LBRA analysis)
translate raw LBR entries into "source branch X evaluated true" facts, as
discussed around Figure 2 of the paper.
"""

from dataclasses import dataclass, field

from repro.isa.layout import CODE_BASE, INSTRUCTION_SIZE


@dataclass(frozen=True)
class SourceLocation:
    """A place in MiniC source code."""

    function: str
    line: int

    def __str__(self):
        return "%s:%d" % (self.function, self.line)


@dataclass(frozen=True)
class SourceBranch:
    """Source-level identity of a machine branch.

    ``outcome`` records which way the *source* conditional went when this
    machine branch is taken (True edge / False edge), or ``None`` for
    machine branches that do not correspond to a source conditional
    (calls, returns, loop back-edges of desugared constructs).
    """

    branch_id: str
    location: SourceLocation
    outcome: object = None  # True, False, or None
    description: str = ""

    def __str__(self):
        if self.outcome is None:
            return self.branch_id
        return "%s=%s" % (self.branch_id, "T" if self.outcome else "F")


@dataclass
class FunctionInfo:
    """Linker-assigned layout of one function."""

    name: str
    entry: int = None
    end: int = None           # address one past the last instruction
    is_library: bool = False  # eligible for LBR/LCR toggling wrappers
    first_line: int = 0
    last_line: int = 0

    def contains(self, address):
        """Return True if *address* falls inside this function's body."""
        return self.entry is not None and self.entry <= address < self.end


@dataclass
class DebugInfo:
    """Reverse maps from machine addresses to source constructs."""

    #: branch instruction address -> SourceBranch
    branches: dict = field(default_factory=dict)
    #: instruction address -> SourceLocation
    locations: dict = field(default_factory=dict)

    def branch_at(self, address):
        """Return the :class:`SourceBranch` at *address*, or ``None``."""
        return self.branches.get(address)

    def location_at(self, address):
        """Return the :class:`SourceLocation` at *address*, or ``None``."""
        return self.locations.get(address)


class Program:
    """A linked, executable program."""

    def __init__(self, instructions, functions, string_table=None,
                 globals_layout=None, globals_size=0, global_init=None,
                 debug_info=None, entry="main", source_name="<program>"):
        self.instructions = list(instructions)
        self.functions = {f.name: f for f in functions}
        self.string_table = list(string_table or [])
        self.globals_layout = dict(globals_layout or {})
        self.globals_size = globals_size
        #: address -> initial word value, applied by the loader.
        self.global_init = dict(global_init or {})
        self.debug_info = debug_info or DebugInfo()
        self.entry = entry
        self.source_name = source_name
        #: Free-form annotations added by higher layers (e.g. the log
        #: enhancement transformer records its failure-logging sites here).
        self.metadata = {}
        self._index_by_address = {}
        #: Caches higher layers keep on the program that are valid only
        #: in this process (e.g. the threaded backend's closure table,
        #: which cannot be pickled).  Pickles and copies start it empty.
        self._process_local = {}
        self._assign_addresses()

    def __getstate__(self):
        return {**self.__dict__, "_process_local": {}}

    def _assign_addresses(self):
        address = CODE_BASE
        for index, instr in enumerate(self.instructions):
            instr.address = address
            self._index_by_address[address] = index
            address += INSTRUCTION_SIZE
        self.code_end = address

    def instruction_at(self, address):
        """Return the instruction at *address*.

        Raises :class:`KeyError` for addresses outside the code region,
        which the machine turns into a fault.
        """
        index = self._index_by_address.get(address)
        if index is None:
            raise KeyError("no instruction at address 0x%x" % address)
        return self.instructions[index]

    def has_instruction(self, address):
        """Return True if *address* holds an instruction."""
        return address in self._index_by_address

    def entry_address(self):
        """Return the address of the program entry function."""
        return self.functions[self.entry].entry

    def function_named(self, name):
        """Return the :class:`FunctionInfo` for *name* (KeyError if absent)."""
        return self.functions[name]

    def function_at(self, address):
        """Return the function containing *address*, or ``None``."""
        for function in self.functions.values():
            if function.contains(address):
                return function
        return None

    def string(self, index):
        """Return entry *index* of the string table."""
        return self.string_table[index]

    def global_address(self, name):
        """Return the address of global variable *name*."""
        return self.globals_layout[name]

    def __len__(self):
        return len(self.instructions)

    def disassemble(self):
        """Yield ``(address, text)`` pairs for every instruction."""
        for instr in self.instructions:
            yield instr.address, instr.describe()
