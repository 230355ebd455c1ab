"""One-call compilation pipelines: MiniC source to executable Program."""

import inspect
from collections import OrderedDict

from repro.lang.ast_nodes import Module
from repro.lang.parser import parse
from repro.lang.transform import enhance_logging
from repro.compiler.codegen import Compiler
from repro.compiler.stdlib import stdlib_module


def link_with_stdlib(module):
    """Return *module* merged with the standard library.

    User definitions shadow stdlib functions of the same name — that is
    how benchmark applications provide their own application-specific
    failure-logging functions (``ap_log_error``-alikes) while everything
    else comes from the stdlib.
    """
    stdlib = stdlib_module()
    user_functions = {f.name for f in module.functions}
    user_globals = {g.name for g in module.globals}
    merged_functions = list(module.functions) + [
        f for f in stdlib.functions if f.name not in user_functions
    ]
    merged_globals = list(module.globals) + [
        g for g in stdlib.globals if g.name not in user_globals
    ]
    merged = Module(
        globals=merged_globals,
        functions=merged_functions,
        source_name=module.source_name,
    )
    merged.metadata.update(module.metadata)
    return merged


def compile_module(module, toggling=False, include_stdlib=True,
                   entry="main"):
    """Compile an AST module (optionally merged with the stdlib)."""
    if include_stdlib:
        module = link_with_stdlib(module)
    return Compiler(module, toggling=toggling).compile(entry=entry)


def compile_source(source, source_name="<minic>", toggling=False,
                   include_stdlib=True, entry="main"):
    """Parse and compile MiniC *source*."""
    module = parse(source, source_name=source_name)
    return compile_module(
        module, toggling=toggling, include_stdlib=include_stdlib,
        entry=entry,
    )


#: Programs :func:`build_program` keeps: the widest working set of one
#: bug's tools in a Table 6 row.  Each program with its threaded code is
#: about 1 MB, and tools are built and dropped one after another, so a
#: larger memo buys no hits, only memory.
_MEMO_CAPACITY = 4

#: build key -> Program, least recently used first
_built = OrderedDict()

#: every ``enhance_logging`` option with its default
_ENHANCE_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(enhance_logging)
    .parameters.items()
    if parameter.default is not inspect.Parameter.empty
}

#: collection-valued options, keyed the way ``enhance_logging`` reads
#: them, so any iterable it accepts (a list included) makes a key
_COLLECTION_OPTIONS = {"log_functions": frozenset, "rings": tuple}


def build_program(workload, toggling=False, **enhance):
    """Return *workload*'s program, compiled with *toggling*.

    With *enhance* options (any of :func:`enhance_logging`'s keyword
    arguments) the module is log-enhanced first; without any it is
    compiled plain.  The result is memoized on ``(workload.source,
    workload.name, toggling, options)``, with the options resolved
    against ``enhance_logging``'s defaults, so spelling an option at its
    default value shares an entry with leaving it out.
    ``log_functions`` and ``rings`` are keyed as the set and tuple the
    transform reads them as, so a list spelling shares the entry of a
    tuple one.  The memo holds the four most recently used programs
    (``_MEMO_CAPACITY``).

    Callers share the returned program: it must not be mutated.
    """
    options = None
    if enhance:
        # An unknown option never reaches the memo: enhance_logging
        # rejects it on the miss.
        options = {**_ENHANCE_DEFAULTS, **enhance}
        for name, normalize in _COLLECTION_OPTIONS.items():
            options[name] = normalize(options[name])
        options = tuple(sorted(options.items()))
    key = (workload.source, workload.name, toggling, options)
    program = _built.get(key)
    if program is not None:
        _built.move_to_end(key)
        return program
    module = workload.build_module()
    if options is not None:
        module = enhance_logging(module, **dict(options))
    program = compile_module(module, toggling=toggling)
    _built[key] = program
    if len(_built) > _MEMO_CAPACITY:
        _built.popitem(last=False)
    return program
