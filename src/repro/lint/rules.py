"""simlint rule engine: AST checks for determinism, layering, and API shape.

The reproduction's whole value is that every figure regenerates
bit-for-bit from a seed.  Three things silently break that contract and
nothing in the interpreter stops them: ambient randomness (``random``,
``os.urandom``), ambient wall-clock time (``time.time`` feeding a
scheduling decision), and order-dependent iteration over unordered
containers.  ``simlint`` makes the contract machine-checked, the way
trace-replay simulators treat reproducibility as a first-class
invariant.

Three rule families (see :data:`RULES` for one-liners):

* **D-rules** — determinism.  All randomness flows through
  :mod:`repro.sim.rng`; all wall-clock reads live in
  :mod:`repro.runner.pool` (per-task timing) or carry a waiver; sets are
  never iterated bare; no ``id()``-based sort keys.
* **L-rules** — layering.  The import DAG is explicit: ``sim``/``obs``
  never import a domain layer, ``memory``/``pcie`` never import
  ``virt``/``training``, nothing outside ``legacy`` imports ``legacy``.
  Cross-module private-attribute reads are flagged so public
  ``snapshot()`` surfaces stay the only coupling points.
* **A-rules** — API shape.  A class exporting metrics
  (``register_metrics``) must expose a public ``snapshot``, and
  ``snapshot()`` must return plain dict/list/scalar data (no sets,
  lambdas, or generators — they either lose ordering or break JSON
  export).

Waivers are per-line: ``# simlint: ok <rule> [<rule> ...]`` on the
violating line (or the closing line of a multi-line statement).  A bare
``# simlint: ok`` or a family letter (``D``/``L``/``A``) waives broadly;
prefer naming the exact rule.  Pure stdlib (``ast``), no third-party
dependencies, so the lint gate runs in the dependency-frozen container.
"""

import ast
import os
import re
import tokenize


#: Rule id -> one-line description (``python -m repro.lint --list-rules``).
RULES = {
    "D-random": (
        "ambient randomness (random/secrets/np.random/os.urandom) outside "
        "repro.sim.rng; draw from a seeded RngStream instead"
    ),
    "D-nprandom": (
        "numpy.random imported into repro.* (import numpy.random / from "
        "numpy import random / from numpy.random import ...); the local "
        "alias hides the ambient generator from the np.random attribute "
        "check — draw from a seeded RngStream instead"
    ),
    "D-wallclock": (
        "wall-clock read (time.time/perf_counter/datetime.now/...) outside "
        "repro.runner.pool; simulations must only consume "
        "scheduler.now"
    ),
    "D-set-iter": (
        "iteration over a bare set/frozenset; wrap in sorted(...) so the "
        "visit order cannot leak hash randomization into scheduling"
    ),
    "D-id-key": (
        "id()-based sort key; id() changes across processes, so the order "
        "is not reproducible — sort on a stable attribute"
    ),
    "D-taskpure": (
        "@task callable captures ambient state (module-level mutable, "
        "ambient RNG, the process-default registry, global/nonlocal, or a "
        "mutable default); runner tasks must be pure — pool workers and "
        "sequential runs must compute bit-identical results"
    ),
    "D-taskpure-deep": (
        "@task callable transitively reaches a determinism taint through "
        "the static call graph (a helper that reads the wall clock, draws "
        "ambient RNG, or mutates module state, any number of hops away); "
        "the per-file D-taskpure audit cannot see past the first call"
    ),
    "D-sim-pure": (
        "callback registered on the EventScheduler (schedule/schedule_call/"
        "schedule_at) transitively reaches a wall-clock or ambient-RNG "
        "read; everything the event loop runs must be a pure function of "
        "seeded simulation state"
    ),
    "L-layer": (
        "import breaks the layer DAG (sim/obs import no domain layer, "
        "memory/pcie never import virt/training, nothing imports legacy, "
        "only workloads imports the cluster layer, traces is imported "
        "only by workloads/runner and never imports the obs probe)"
    ),
    "L-private": (
        "cross-module private-attribute access x._attr; use the public "
        "snapshot()/accessor surface instead of reaching into internals"
    ),
    "L-api-drift": (
        "public symbol defined in repro.* but never referenced from any "
        "other module, test, benchmark, CLI, or example; demote it to a "
        "_private name, delete it, or wire it to an entry point"
    ),
    "A-snapshot-pair": (
        "class defines register_metrics without a public snapshot(); the "
        "metrics registry needs both"
    ),
    "A-snapshot-plain": (
        "snapshot() must build and return plain dict/list/scalar data "
        "(no sets, lambdas, or generators) so exports stay deterministic"
    ),
    "A-flight-plain": (
        "flight-recorder record(...) payloads must be plain scalar/dict/"
        "list data (no sets, lambdas, or generators) so the flight log "
        "digests and exports deterministically"
    ),
}

#: repro subpackages that model the paper's stack (the "domain" layers).
_DOMAIN_LAYERS = frozenset({
    "core", "memory", "pcie", "rnic", "net", "virt", "training",
    "collectives", "workloads", "analysis", "legacy", "calibration",
    "cluster", "runner", "traces",
})

#: Infrastructure layers every domain layer may depend on — never the
#: reverse.
_INFRA_LAYERS = frozenset({"sim", "obs"})

#: The passive observability plane: events flow *into* these modules via
#: record()/observe() hooks, never via imports.  They may not import the
#: probe (which drives domain workloads under a waiver) — that would
#: invert the hook direction and drag domain layers into every consumer
#: of the flight recorder.
_OBS_PLANE = ("repro.obs.flight", "repro.obs.slo")

#: Wall-clock attribute chains D-wallclock rejects.
WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "date.today", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.date.today",
})

#: Names that, imported from ``time``, are wall-clock reads.
WALLCLOCK_IMPORTS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
})

#: Packages sanctioned to read the wall clock: only the runner's pool
#: module (per-task worker seconds for the report table — task bodies
#: themselves stay clock-free).  Everything else must consume
#: ``scheduler.now``.
WALLCLOCK_ALLOWED = ("repro.runner.pool",)

#: Modules whose import is ambient randomness.
RANDOM_MODULES = frozenset({"random", "secrets"})

#: Receiver names whose ``.record(...)`` calls A-flight-plain treats as
#: flight-recorder appends.  Matching is by the last dotted segment, so
#: ``self.flight.record(...)`` and ``sim.flight.record(...)`` both count.
_FLIGHT_RECEIVERS = frozenset({"flight", "recorder", "flight_recorder"})

_WAIVER_RE = re.compile(r"#\s*simlint:\s*ok\b([^#\n]*)")


class Violation:
    """One rule hit at a source location."""

    __slots__ = ("path", "line", "col", "rule", "message")

    def __init__(self, path, line, col, rule, message):
        self.path = path
        self.line = line
        self.col = col
        self.rule = rule
        self.message = message

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def __repr__(self):
        return "%s:%d:%d: %s %s" % (
            self.path, self.line, self.col, self.rule, self.message,
        )


def module_name_for(path):
    """Best-effort dotted module name for ``path``.

    Returns e.g. ``repro.sim.engine`` for any path with a ``repro``
    directory component; ``None`` for files outside the package (tests,
    benchmarks), which opt out of the layering DAG but not of the other
    rules.
    """
    parts = list(os.path.normpath(path).split(os.sep))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")  # last occurrence
    module_parts = parts[index:]
    if module_parts[-1] == "__init__":
        module_parts = module_parts[:-1]
    return ".".join(module_parts)


def parse_waivers(source):
    """``{line number: set of waived rule ids}`` from waiver comments.

    Uses the token stream so a ``# simlint: ok`` inside a string literal
    does not count as a waiver.
    """
    waivers = {}
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _WAIVER_RE.search(token.string)
            if match is None:
                continue
            names = match.group(1).split()
            line = token.start[0]
            waivers.setdefault(line, set()).update(names if names else {"*"})
    except tokenize.TokenError:
        pass  # syntax errors surface from ast.parse with a real location
    return waivers


def waiver_lines_for(node):
    """Source lines where a waiver comment suppresses rules on ``node``.

    The node's own first and last line, plus — for decorated defs — each
    decorator line, so ``@task  # simlint: ok D-taskpure`` reads
    naturally next to the contract it relaxes.
    """
    lines = {getattr(node, "lineno", 0)}
    end = getattr(node, "end_lineno", None)
    if end is not None:
        lines.add(end)
    for decorator in getattr(node, "decorator_list", []):
        lines.add(getattr(decorator, "lineno", 0))
    return lines


def rule_waived_at(waivers, lines, rule):
    """True when any of ``lines`` carries a waiver covering ``rule``.

    A waiver covers a rule when it names it exactly, names its family
    letter (``D``/``L``/``A``), or is a bare ``# simlint: ok`` (``*``).
    """
    family = rule.split("-", 1)[0]
    for line in lines:
        waived = waivers.get(line)
        if waived and ({"*", rule, family} & waived):
            return True
    return False


def _waived(waivers, node, rule):
    return rule_waived_at(waivers, waiver_lines_for(node), rule)


def dotted_name(node):
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _collect_private_defs(tree):
    """Every private name the module itself defines or assigns.

    Access to one of these via ``obj._attr`` is intra-module coupling
    (a class touching its sibling's plan cache, a class-level id
    counter) and allowed; access to any *other* private is reaching into
    a different module's internals and flagged by L-private.
    """
    defined = set()

    def add_target(target):
        if isinstance(target, ast.Name):
            if target.id.startswith("_"):
                defined.add(target.id)
        elif isinstance(target, ast.Attribute):
            if target.attr.startswith("_"):
                defined.add(target.attr)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                add_target(element)
        elif isinstance(target, ast.Starred):
            add_target(target.value)

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                defined.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                add_target(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            add_target(node.target)
        elif isinstance(node, (ast.arguments,)):
            for arg in getattr(node, "args", []):
                if arg.arg.startswith("_"):
                    defined.add(arg.arg)
    return defined


def _is_mutable_literal(node):
    """Literal/constructor expressions that produce a mutable object."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in ("list", "dict", "set", "bytearray", "deque",
                        "defaultdict", "OrderedDict", "Counter")
    return False


def _collect_mutable_globals(tree):
    """Module-level names bound to mutable literals/constructors.

    A ``@task`` callable reading one of these captures shared process
    state: under the pool each worker sees its own fork-time copy, so
    sequential and pooled runs can silently diverge (D-taskpure).
    """
    mutable = set()
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if not _is_mutable_literal(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                mutable.add(target.id)
    return mutable


def _layer_of(module):
    """The repro subpackage a dotted module belongs to, or ``None``."""
    if module is None:
        return None
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def layer_violation(importer_module, imported_module):
    """Message when ``importer_module`` importing ``imported_module``
    breaks the DAG, else ``None``.  Both are dotted names.

    Modules outside the ``repro`` package (tests, benchmarks, examples)
    sit outside the DAG: they exercise every layer, including legacy.
    """
    if importer_module is None:
        return None
    src = _layer_of(importer_module)
    dst = _layer_of(imported_module)
    if dst is None:
        return None
    if dst == "legacy" and src != "legacy":
        return "nothing imports repro.legacy (import of %s)" % imported_module
    if src in _INFRA_LAYERS and dst in _DOMAIN_LAYERS:
        return "repro.%s must not import domain layer repro.%s" % (src, dst)
    if importer_module in _OBS_PLANE or any(
        importer_module.startswith(plane + ".") for plane in _OBS_PLANE
    ):
        if imported_module == "repro.obs.probe" or imported_module.startswith(
            "repro.obs.probe."
        ):
            return (
                "%s must not import repro.obs.probe; flight/SLO events "
                "arrive via record()/observe() hooks, not imports"
                % importer_module
            )
    if src in ("memory", "pcie") and dst in ("virt", "training"):
        return "repro.%s must not import repro.%s" % (src, dst)
    # cluster is the top domain layer: it may import everything (except
    # legacy, covered above); below it only workloads may drive a fleet.
    if dst == "cluster" and src is not None and src not in ("cluster", "workloads"):
        return "repro.%s must not import the cluster layer (only workloads may)" % src
    # traces sits beside workloads: it builds on sim/net/training/
    # collectives and the passive obs surface, and is consumed only by
    # the drivers (workloads tooling, runner tasks, the CLI).  The
    # fleet's trace recorder arrives via a duck-typed ctor hook, never an
    # import — same inversion as the flight recorder.
    if dst == "traces" and src is not None and src not in (
        "traces", "workloads", "runner", "__main__"
    ):
        return (
            "repro.%s must not import the traces layer (recorders attach "
            "via duck-typed hooks; only workloads/runner/CLI replay)" % src
        )
    if src == "traces" and (
        imported_module == "repro.obs.probe"
        or imported_module.startswith("repro.obs.probe.")
    ):
        return (
            "%s must not import repro.obs.probe; traces feed the obs "
            "plane via record() hooks, not imports" % importer_module
        )
    return None


class _Checker(ast.NodeVisitor):
    """Single-pass visitor applying every rule to one module."""

    def __init__(self, path, module, waivers, private_defs,
                 mutable_globals=frozenset()):
        self.path = path
        self.module = module
        self.waivers = waivers
        self.private_defs = private_defs
        self.mutable_globals = mutable_globals
        self.violations = []
        self._stmt_stack = []
        self._in_rng_module = module == "repro.sim.rng"
        self._wallclock_ok = module is not None and any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in WALLCLOCK_ALLOWED
        )

    # -- plumbing --------------------------------------------------------

    def visit(self, node):
        # Track the enclosing statement so a waiver on its first or
        # closing line covers expression-level findings inside it (the
        # "closing line of a multi-line statement" contract).
        if isinstance(node, ast.stmt):
            self._stmt_stack.append(node)
            try:
                super().visit(node)
            finally:
                self._stmt_stack.pop()
        else:
            super().visit(node)

    def _report(self, node, rule, message, owner=None):
        if _waived(self.waivers, node, rule):
            return
        if owner is not None and _waived(self.waivers, owner, rule):
            return
        if self._stmt_stack and rule_waived_at(
            self.waivers, waiver_lines_for(self._stmt_stack[-1]), rule,
        ):
            return
        self.violations.append(Violation(
            self.path, getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0), rule, message,
        ))

    def _resolve_from(self, node):
        """Absolute dotted module for an ImportFrom (handles relative)."""
        if node.level == 0:
            return node.module
        if self.module is None:
            return node.module
        base = self.module.split(".")
        # level 1 = current package: for a module file, drop the leaf.
        base = base[:len(base) - node.level] if len(base) >= node.level else []
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) if base else node.module

    # -- imports ---------------------------------------------------------

    def _check_random_import(self, node, module):
        if self._in_rng_module or module is None:
            return
        root = module.split(".", 1)[0]
        if root in RANDOM_MODULES:
            self._report(
                node, "D-random",
                "import of %r outside repro.sim.rng; use a seeded RngStream"
                % module,
            )
        # Importing the numpy.random package (or anything inside it)
        # rebinds the ambient generator under a local name, which the
        # np.random.* attribute check (D-random) can no longer see.
        if module == "numpy.random" or module.startswith("numpy.random."):
            self._report(
                node, "D-nprandom",
                "import of %r binds the ambient numpy generator under a "
                "local alias; draw from a seeded RngStream" % module,
            )

    def visit_Import(self, node):
        for alias in node.names:
            self._check_random_import(node, alias.name)
            message = layer_violation(self.module, alias.name)
            if message:
                self._report(node, "L-layer", message)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        module = self._resolve_from(node)
        self._check_random_import(node, module)
        if module == "numpy" and not self._in_rng_module:
            for alias in node.names:
                if alias.name == "random":
                    self._report(
                        node, "D-nprandom",
                        "'from numpy import random' aliases the ambient "
                        "generator; draw from a seeded RngStream",
                    )
        if module == "time" and not self._wallclock_ok:
            clocks = sorted(
                alias.name for alias in node.names
                if alias.name in WALLCLOCK_IMPORTS
            )
            if clocks:
                self._report(
                    node, "D-wallclock",
                    "wall-clock import from time (%s); simulations read "
                    "scheduler.now" % ", ".join(clocks),
                )
        if module is not None:
            message = layer_violation(self.module, module)
            if message:
                self._report(node, "L-layer", message)
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    if module.split(".", 1)[0] == "repro":
                        self._report(
                            node, "L-private",
                            "importing private name %s from %s"
                            % (alias.name, module),
                        )
        self.generic_visit(node)

    # -- expression-level determinism rules ------------------------------

    def visit_Attribute(self, node):
        dotted = dotted_name(node)
        if dotted is not None:
            root = dotted.split(".", 1)[0]
            if not self._in_rng_module and (
                root in RANDOM_MODULES
                or dotted.startswith(("np.random.", "numpy.random."))
                or dotted in ("np.random", "numpy.random", "os.urandom")
            ):
                self._report(
                    node, "D-random",
                    "%s is ambient randomness; draw from a seeded RngStream"
                    % dotted,
                )
            if not self._wallclock_ok and dotted in WALLCLOCK_CALLS:
                self._report(
                    node, "D-wallclock",
                    "%s reads the wall clock; simulations read scheduler.now"
                    % dotted,
                )
        if (
            node.attr.startswith("_")
            and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name)
                     and node.value.id in ("self", "cls"))
            and node.attr not in self.private_defs
        ):
            self._report(
                node, "L-private",
                "access to %s reaches into another module's internals"
                % ("%s.%s" % (dotted.rsplit(".", 1)[0], node.attr)
                   if dotted else node.attr),
            )
        self.generic_visit(node)

    @staticmethod
    def _is_bare_set(node):
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def _check_iter(self, node, iter_node):
        if self._is_bare_set(iter_node):
            self._report(
                node, "D-set-iter",
                "iterating a bare set; wrap in sorted(...) for a "
                "deterministic visit order",
            )

    def visit_For(self, node):
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node):
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node):
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name):
            if node.func.id in ("list", "tuple", "enumerate") and node.args:
                if self._is_bare_set(node.args[0]):
                    self._report(
                        node, "D-set-iter",
                        "%s(set(...)) materializes an unordered set; use "
                        "sorted(...)" % node.func.id,
                    )
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            value = keyword.value
            uses_id = (
                isinstance(value, ast.Name) and value.id == "id"
            ) or (
                isinstance(value, ast.Lambda) and any(
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                    for sub in ast.walk(value)
                )
            )
            if uses_id:
                self._report(
                    node, "D-id-key",
                    "id()-based sort key is process-dependent; key on a "
                    "stable attribute",
                )
        self._check_flight_payload(node)
        self.generic_visit(node)

    def _check_flight_payload(self, node):
        """A-flight-plain: flight record(...) arguments stay plain data.

        Flight events are digested (canonical JSON) and exported to JSONL
        and Perfetto; a set loses ordering and a lambda/generator breaks
        serialization, so neither may ride in a payload.  Mirrors the
        A-snapshot-plain walk, applied at the call site.
        """
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "record"):
            return
        dotted = dotted_name(func.value)
        if dotted is None:
            return
        leaf = dotted.rsplit(".", 1)[-1]
        if leaf not in _FLIGHT_RECEIVERS and not leaf.endswith("flight"):
            return
        values = list(node.args) + [kw.value for kw in node.keywords]
        for value in values:
            for sub in ast.walk(value):
                if isinstance(sub, (ast.Set, ast.SetComp, ast.Lambda,
                                    ast.GeneratorExp)):
                    self._report(
                        node, "A-flight-plain",
                        "flight record(...) payload must be plain "
                        "dict/list/scalar data (found a %s)"
                        % type(sub).__name__.lower(),
                    )
                    return

    # -- D-taskpure ------------------------------------------------------

    @staticmethod
    def _is_task_decorator(decorator):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name):
            return decorator.id == "task"
        if isinstance(decorator, ast.Attribute):
            return decorator.attr == "task"
        return False

    def visit_FunctionDef(self, node):
        if any(self._is_task_decorator(d) for d in node.decorator_list):
            self._check_task_purity(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check_task_purity(self, fn):
        """Audit a ``@task`` callable for ambient-state capture.

        Runner tasks execute in pool workers; anything they consume
        besides kwargs/seed — a module-level mutable, ambient RNG, the
        process-default metrics registry — makes pooled and sequential
        runs diverge without any error.
        """
        args = fn.args
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_literal(default):
                self._report(
                    default, "D-taskpure",
                    "task %s has a mutable default argument (shared across "
                    "calls); default to None and build inside" % fn.name,
                    owner=fn,
                )
        bound = {
            arg.arg for arg in (
                list(getattr(args, "posonlyargs", []))
                + list(args.args) + list(args.kwonlyargs)
            )
        }
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None:
                bound.add(vararg.arg)
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Name) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                bound.add(sub.id)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and sub is not fn:
                bound.add(sub.name)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                for alias in sub.names:
                    bound.add((alias.asname or alias.name).split(".", 1)[0])
        for sub in ast.walk(fn):
            if isinstance(sub, (ast.Global, ast.Nonlocal)):
                self._report(
                    sub, "D-taskpure",
                    "task %s uses %s; tasks must be pure functions of "
                    "their kwargs" % (fn.name, type(sub).__name__.lower()),
                    owner=fn,
                )
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in self.mutable_globals and sub.id not in bound:
                    self._report(
                        sub, "D-taskpure",
                        "task %s captures module-level mutable %r; pass it "
                        "through kwargs instead" % (fn.name, sub.id),
                        owner=fn,
                    )
            elif isinstance(sub, ast.Call):
                func = sub.func
                call_name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None
                )
                if call_name == "get_registry":
                    self._report(
                        sub, "D-taskpure",
                        "task %s reads the process-default metrics registry; "
                        "build a fresh MetricsRegistry inside the task"
                        % fn.name, owner=fn,
                    )
                dotted = dotted_name(func) if isinstance(
                    func, ast.Attribute
                ) else None
                if dotted is not None:
                    root = dotted.split(".", 1)[0]
                    if root in RANDOM_MODULES or dotted.startswith(
                        ("np.random.", "numpy.random.")
                    ):
                        self._report(
                            sub, "D-taskpure",
                            "task %s draws ambient randomness (%s); thread "
                            "a seed through kwargs" % (fn.name, dotted),
                            owner=fn,
                        )

    # -- A-rules ---------------------------------------------------------

    def visit_ClassDef(self, node):
        methods = {
            stmt.name for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "register_metrics" in methods and "snapshot" not in methods:
            self._report(
                node, "A-snapshot-pair",
                "class %s defines register_metrics but no snapshot()"
                % node.name,
            )
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "snapshot":
                self._check_snapshot_body(stmt)
        self.generic_visit(node)

    def _check_snapshot_body(self, fn):
        dictish = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and self._is_dictish(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        dictish.add(target.id)
        returns = [
            node for node in ast.walk(fn) if isinstance(node, ast.Return)
        ]
        if not returns:
            self._report(
                fn, "A-snapshot-plain",
                "snapshot() must return a plain dict of counters",
            )
            return
        for ret in returns:
            value = ret.value
            if value is None or not self._returns_plain(value, dictish):
                self._report(
                    ret, "A-snapshot-plain",
                    "snapshot() must return a plain dict built in the "
                    "method body",
                )
                continue
            for sub in ast.walk(value):
                if isinstance(sub, (ast.Set, ast.SetComp, ast.Lambda,
                                    ast.GeneratorExp)):
                    self._report(
                        ret, "A-snapshot-plain",
                        "snapshot() values must be plain dict/list/scalar "
                        "data (found a %s)" % type(sub).__name__.lower(),
                    )
                    break

    @staticmethod
    def _is_dictish(node):
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "dict":
                return True
            # x.snapshot() / super().snapshot(): plain by induction, since
            # this rule holds every snapshot() to plain data.
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "snapshot"):
                return True
        return False

    def _returns_plain(self, node, dictish):
        if self._is_dictish(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in dictish
        if isinstance(node, ast.IfExp):
            return (self._returns_plain(node.body, dictish)
                    and self._returns_plain(node.orelse, dictish))
        return False


def lint_tree(tree, source, path="<string>", module=None, waivers=None):
    """Apply every per-file rule to an already-parsed module.

    Split out of :func:`lint_source` so the whole-program engine
    (:mod:`repro.lint.engine`) can parse each file exactly once and feed
    the same tree to both the per-file rules and the call-graph summary.
    """
    if module is None:
        module = module_name_for(path)
    if waivers is None:
        waivers = parse_waivers(source)
    checker = _Checker(
        path, module, waivers, _collect_private_defs(tree),
        mutable_globals=_collect_mutable_globals(tree),
    )
    checker.visit(tree)
    return sorted(checker.violations, key=Violation.sort_key)


def lint_source(source, path="<string>", module=None):
    """Lint one source string; returns a list of :class:`Violation`."""
    tree = ast.parse(source, filename=path)
    return lint_tree(tree, source, path=path, module=module)


def lint_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path=path)


def iter_python_files(paths):
    """Yield every ``.py`` file under ``paths`` (files or directories)."""
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name for name in dirnames
                if name != "__pycache__" and not name.startswith(".")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def lint_paths(paths):
    """Lint every Python file under ``paths``; returns sorted violations."""
    violations = []
    for path in iter_python_files(paths):
        violations.extend(lint_file(path))
    return sorted(violations, key=Violation.sort_key)
